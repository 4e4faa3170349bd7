package winenv

import (
	"maps"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded, want error")
	}
	if KindInvalid.Valid() {
		t.Error("KindInvalid.Valid() = true")
	}
}

func TestOpValid(t *testing.T) {
	for _, o := range Ops() {
		if !o.Valid() {
			t.Errorf("%v.Valid() = false", o)
		}
	}
	if OpInvalid.Valid() {
		t.Error("OpInvalid.Valid() = true")
	}
}

func TestCreateOpenQueryDelete(t *testing.T) {
	e := New(DefaultIdentity())
	req := Request{Kind: KindMutex, Op: OpCreate, Name: "!VoqA.I4", Principal: "mal"}

	res := e.Do(req)
	if !res.OK || res.Err != ErrSuccess {
		t.Fatalf("create mutex: %+v", res)
	}
	if res.Handle == InvalidHandle {
		t.Fatal("create returned invalid handle")
	}

	// Second create succeeds but reports ERROR_ALREADY_EXISTS.
	res2 := e.Do(req)
	if !res2.OK || res2.Err != ErrAlreadyExists {
		t.Fatalf("second create mutex: %+v, want OK with ALREADY_EXISTS", res2)
	}
	if e.LastError() != ErrAlreadyExists {
		t.Errorf("LastError = %v, want ALREADY_EXISTS", e.LastError())
	}

	// Open and query are case-insensitive.
	open := e.Do(Request{Kind: KindMutex, Op: OpOpen, Name: "!voqa.i4", Principal: "mal"})
	if !open.OK {
		t.Fatalf("case-insensitive open failed: %+v", open)
	}
	if !e.Exists(KindMutex, "!VOQA.I4") {
		t.Error("Exists case-insensitive lookup failed")
	}

	// Delete, then open fails with FILE_NOT_FOUND.
	if res := e.Do(Request{Kind: KindMutex, Op: OpDelete, Name: "!VoqA.I4", Principal: "mal"}); !res.OK {
		t.Fatalf("delete: %+v", res)
	}
	gone := e.Do(Request{Kind: KindMutex, Op: OpOpen, Name: "!VoqA.I4", Principal: "mal"})
	if gone.OK || gone.Err != ErrFileNotFound {
		t.Fatalf("open deleted mutex: %+v, want FILE_NOT_FOUND", gone)
	}
}

func TestCreateExistingFileFails(t *testing.T) {
	e := New(DefaultIdentity())
	req := Request{Kind: KindFile, Op: OpCreate, Name: `C:\x\a.exe`, Principal: "p"}
	if res := e.Do(req); !res.OK {
		t.Fatalf("first create: %+v", res)
	}
	res := e.Do(req)
	if res.OK || res.Err != ErrAlreadyExists {
		t.Fatalf("second file create: %+v, want ALREADY_EXISTS failure", res)
	}
}

func TestServiceCreateExisting(t *testing.T) {
	e := New(DefaultIdentity())
	req := Request{Kind: KindService, Op: OpCreate, Name: "qatpcks", Principal: "p"}
	e.Do(req)
	res := e.Do(req)
	if res.OK || res.Err != ErrServiceExists {
		t.Fatalf("duplicate service create: %+v, want SERVICE_EXISTS", res)
	}
}

func TestReadWrite(t *testing.T) {
	e := New(DefaultIdentity())
	name := `C:\Windows\system32\sdra64.exe`
	e.Do(Request{Kind: KindFile, Op: OpCreate, Name: name, Principal: "zeus"})
	w := e.Do(Request{Kind: KindFile, Op: OpWrite, Name: name, Principal: "zeus", Data: []byte("MZ\x90payload")})
	if !w.OK {
		t.Fatalf("write: %+v", w)
	}
	r := e.Do(Request{Kind: KindFile, Op: OpRead, Name: name, Principal: "zeus"})
	if !r.OK || string(r.Data) != "MZ\x90payload" {
		t.Fatalf("read: %+v", r)
	}
	// Read of a missing file fails.
	miss := e.Do(Request{Kind: KindFile, Op: OpRead, Name: `C:\no\such`, Principal: "zeus"})
	if miss.OK || miss.Err != ErrFileNotFound {
		t.Fatalf("read missing: %+v", miss)
	}
}

func TestACLDeny(t *testing.T) {
	e := New(DefaultIdentity())
	e.Inject(Resource{
		Kind: KindFile, Name: `C:\Windows\system32\sdra64.exe`,
		Owner: "vaccine", ACL: DenyAll(),
	})
	// Malware cannot create (exists), write, read, or delete it.
	for _, op := range []Op{OpWrite, OpRead, OpDelete, OpOpen} {
		res := e.Do(Request{Kind: KindFile, Op: op, Name: `C:\Windows\system32\sdra64.exe`, Principal: "zeus"})
		if res.OK || res.Err != ErrAccessDenied {
			t.Errorf("%v on vaccinated file: %+v, want ACCESS_DENIED", op, res)
		}
	}
	// The owner retains full access.
	res := e.Do(Request{Kind: KindFile, Op: OpRead, Name: `C:\Windows\system32\sdra64.exe`, Principal: "vaccine"})
	if !res.OK {
		t.Errorf("owner read: %+v", res)
	}
}

func TestACLDenyOps(t *testing.T) {
	e := New(DefaultIdentity())
	e.Inject(Resource{
		Kind: KindFile, Name: `C:\marker`, Owner: "vaccine",
		ACL: DenyOps(OpWrite, OpDelete),
	})
	if res := e.Do(Request{Kind: KindFile, Op: OpQuery, Name: `C:\marker`, Principal: "m"}); !res.OK {
		t.Errorf("query should be allowed: %+v", res)
	}
	if res := e.Do(Request{Kind: KindFile, Op: OpWrite, Name: `C:\marker`, Principal: "m"}); res.OK {
		t.Errorf("write should be denied: %+v", res)
	}
}

func TestHooksIntercept(t *testing.T) {
	e := New(DefaultIdentity())
	calls := 0
	e.AddHook(func(req Request) *Result {
		if req.Kind == KindMutex && req.Op == OpCreate {
			calls++
			return &Result{Err: ErrAccessDenied}
		}
		return nil
	})
	res := e.Do(Request{Kind: KindMutex, Op: OpCreate, Name: "x", Principal: "m"})
	if res.OK || !res.Intercepted || res.Err != ErrAccessDenied {
		t.Fatalf("intercepted create: %+v", res)
	}
	if calls != 1 {
		t.Fatalf("hook calls = %d, want 1", calls)
	}
	// Non-matching ops pass through.
	res = e.Do(Request{Kind: KindFile, Op: OpCreate, Name: "y", Principal: "m"})
	if !res.OK || res.Intercepted {
		t.Fatalf("pass-through create: %+v", res)
	}
	e.ClearHooks()
	if e.HookCount() != 0 {
		t.Error("ClearHooks left hooks")
	}
}

func TestHandleLifecycle(t *testing.T) {
	e := New(DefaultIdentity())
	res := e.Do(Request{Kind: KindMutex, Op: OpCreate, Name: "m1", Principal: "p"})
	kind, name, ok := e.HandleName(res.Handle)
	if !ok || kind != KindMutex || name != "m1" {
		t.Fatalf("HandleName = %v %q %v", kind, name, ok)
	}
	if !e.CloseHandle(res.Handle) {
		t.Fatal("CloseHandle failed")
	}
	if e.CloseHandle(res.Handle) {
		t.Fatal("double CloseHandle succeeded")
	}
	if e.LastError() != ErrInvalidHandle {
		t.Errorf("LastError after bad close = %v", e.LastError())
	}
}

func TestSystemPopulation(t *testing.T) {
	e := New(DefaultIdentity())
	for _, tc := range []struct {
		kind ResourceKind
		name string
	}{
		{KindProcess, "explorer.exe"},
		{KindProcess, "svchost.exe"},
		{KindLibrary, "kernel32.dll"},
		{KindRegistry, `HKLM\Software\Microsoft\Windows\CurrentVersion\Run`},
	} {
		if !e.Exists(tc.kind, tc.name) {
			t.Errorf("system resource %v %q missing", tc.kind, tc.name)
		}
	}
	if got := e.ResourceCount(KindProcess); got < 5 {
		t.Errorf("process count = %d, want >= 5", got)
	}
}

func TestListByOwner(t *testing.T) {
	e := New(DefaultIdentity())
	e.Inject(Resource{Kind: KindMutex, Name: "vac1"})
	e.Inject(Resource{Kind: KindMutex, Name: "vac0"})
	got := e.List(KindMutex, "vaccine")
	if len(got) != 2 || got[0] != "vac0" || got[1] != "vac1" {
		t.Errorf("List = %v", got)
	}
}

func TestInvalidRequest(t *testing.T) {
	e := New(DefaultIdentity())
	res := e.Do(Request{Kind: KindInvalid, Op: OpCreate, Name: "x"})
	if res.OK || res.Err != ErrInvalidParameter {
		t.Errorf("invalid kind: %+v", res)
	}
	res = e.Do(Request{Kind: KindFile, Op: OpInvalid, Name: "x"})
	if res.OK || res.Err != ErrInvalidParameter {
		t.Errorf("invalid op: %+v", res)
	}
}

func TestNotFoundErrorsPerKind(t *testing.T) {
	e := New(DefaultIdentity())
	for _, tc := range []struct {
		kind ResourceKind
		want ErrorCode
	}{
		{KindLibrary, ErrModuleNotFound},
		{KindService, ErrServiceNotFound},
		{KindWindow, ErrWindowNotFound},
		{KindFile, ErrFileNotFound},
		{KindMutex, ErrFileNotFound},
	} {
		res := e.Do(Request{Kind: tc.kind, Op: OpOpen, Name: "definitely-missing-xyz", Principal: "p"})
		if res.OK || res.Err != tc.want {
			t.Errorf("%v open missing: got %v, want %v", tc.kind, res.Err, tc.want)
		}
	}
}

// Property: handle allocation never reuses a live handle and every open
// handle resolves.
func TestHandleUniquenessProperty(t *testing.T) {
	f := func(names []string) bool {
		e := New(DefaultIdentity())
		seen := make(map[Handle]bool)
		for i, n := range names {
			if n == "" {
				continue
			}
			res := e.Do(Request{Kind: KindMutex, Op: OpCreate, Name: n, Principal: "p"})
			if !res.OK {
				return false
			}
			if seen[res.Handle] {
				return false
			}
			seen[res.Handle] = true
			if _, _, ok := e.HandleName(res.Handle); !ok {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a Snapshot, arbitrary ops, then Reset, twice over, leave
// every namespace and the handle table as the snapshot captured them.
func TestSnapshotPropertyIsolation(t *testing.T) {
	f := func(ops []uint8, names []string) bool {
		e := New(DefaultIdentity())
		held := e.Do(Request{Kind: KindFile, Op: OpCreate, Name: "held", Principal: "p", Data: []byte("v1")}).Handle
		resources := make(map[resKey]*Resource)
		for k, ns := range e.resources {
			for key, r := range ns {
				resources[resKey{k, key}] = r.clone()
			}
		}
		handles := maps.Clone(e.handles)

		snap := e.Snapshot()
		defer snap.Close()
		for round := 0; round < 2; round++ {
			for i, b := range ops {
				if len(names) == 0 {
					break
				}
				name := names[i%len(names)]
				if name == "" || b%5 == 0 {
					name = "held"
				}
				kind := Kinds()[int(b)%len(Kinds())]
				op := Ops()[int(b/8)%len(Ops())]
				e.Do(Request{Kind: kind, Op: op, Name: name, Principal: "p", Data: []byte{b}})
				if b%7 == 0 {
					e.CloseHandle(held)
				}
			}
			e.Reset(snap)
		}

		n := 0
		for k, ns := range e.resources {
			for key, r := range ns {
				if !sameResource(r, resources[resKey{k, key}]) {
					return false
				}
				n++
			}
		}
		return n == len(resources) && maps.Equal(e.handles, handles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNetwork(t *testing.T) {
	e := New(DefaultIdentity())
	n := e.Net()
	n.AddDNS("cc.evil.example", "203.0.113.7")

	ip, ok := n.Resolve("cc.evil.example")
	if !ok || ip != "203.0.113.7" {
		t.Fatalf("Resolve = %q %v", ip, ok)
	}
	// Unknown hosts synthesize a stable address.
	ip1, ok1 := n.Resolve("unknown.example")
	ip2, _ := n.Resolve("unknown.example")
	if !ok1 || ip1 != ip2 {
		t.Errorf("synthetic resolve unstable: %q vs %q", ip1, ip2)
	}

	s := Handle(0x7000)
	if !n.BindConnect(s, "203.0.113.7:443") {
		t.Fatal("BindConnect failed")
	}
	if !n.SendPayload(s, make([]byte, 128)) {
		t.Error("SendPayload failed")
	}
	n.CloseSocket(s)
	if n.SendPayload(s, []byte{1}) {
		t.Error("SendPayload on closed socket succeeded")
	}

	n.Blackhole("dead.example")
	if _, ok := n.Resolve("dead.example"); ok {
		t.Error("blackholed resolve succeeded")
	}
	n.Blackhole("1.2.3.4:80")
	if n.BindConnect(s, "1.2.3.4:80") {
		t.Error("blackholed connect succeeded")
	}
}

func TestEnvAccessors(t *testing.T) {
	e := New(DefaultIdentity())
	if e.Identity().ComputerName != "WIN-AUTOVAC01" {
		t.Errorf("identity = %+v", e.Identity())
	}
	id := e.Identity()
	id.ComputerName = "RENAMED"
	e.SetIdentity(id)
	if e.Identity().ComputerName != "RENAMED" {
		t.Error("SetIdentity lost")
	}
	e.SetLastError(ErrAccessDenied)
	if e.LastError() != ErrAccessDenied {
		t.Error("SetLastError lost")
	}
	e.Do(Request{Kind: KindMutex, Op: OpCreate, Name: "t", Principal: "p"})
	if e.OpenHandleCount() != 1 {
		t.Errorf("open handles = %d", e.OpenHandleCount())
	}
	if got := e.String(); !strings.Contains(got, "RENAMED") {
		t.Errorf("String() = %q", got)
	}
}

func TestRemoveDirect(t *testing.T) {
	e := New(DefaultIdentity())
	e.Inject(Resource{Kind: KindMutex, Name: "gone"})
	if !e.Remove(KindMutex, "GONE") {
		t.Error("Remove failed (case-insensitive)")
	}
	if e.Remove(KindMutex, "gone") {
		t.Error("double Remove succeeded")
	}
}

func TestErrorCodeStrings(t *testing.T) {
	if s := ErrAccessDenied.String(); !strings.Contains(s, "ACCESS_DENIED") {
		t.Errorf("ErrAccessDenied = %q", s)
	}
	if s := ErrorCode(424242).String(); s != "424242" {
		t.Errorf("unknown code = %q", s)
	}
}
