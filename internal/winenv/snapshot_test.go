package winenv

import (
	"testing"
)

func snapEnv() *Env {
	return New(DefaultIdentity())
}

func doReq(t *testing.T, e *Env, op Op, kind ResourceKind, name string, data ...byte) Result {
	t.Helper()
	return e.Do(Request{Op: op, Kind: kind, Name: name, Principal: "test", Data: data})
}

func TestSnapshotUndoesCreateWriteDelete(t *testing.T) {
	e := snapEnv()
	e.Inject(Resource{Kind: KindFile, Name: `C:\pre\existing.txt`, Data: []byte("old")})
	preCount := e.ResourceCount(KindFile)

	snap := e.Snapshot()
	defer snap.Close()

	// Create a new resource, overwrite the pre-existing one, delete it.
	if res := doReq(t, e, OpCreate, KindFile, `C:\run\dropped.txt`); !res.OK {
		t.Fatalf("create failed: %v", res.Err)
	}
	if res := doReq(t, e, OpWrite, KindFile, `C:\pre\existing.txt`, []byte("clobbered")...); !res.OK {
		t.Fatalf("write failed: %v", res.Err)
	}
	if res := doReq(t, e, OpDelete, KindFile, `C:\pre\existing.txt`); !res.OK {
		t.Fatalf("delete failed: %v", res.Err)
	}

	e.Reset(snap)

	if e.Exists(KindFile, `C:\run\dropped.txt`) {
		t.Error("created resource survived reset")
	}
	r := e.Lookup(KindFile, `C:\pre\existing.txt`)
	if r == nil {
		t.Fatal("deleted resource not restored")
	}
	if string(r.Data) != "old" {
		t.Errorf("restored data = %q, want %q", r.Data, "old")
	}
	if got := e.ResourceCount(KindFile); got != preCount {
		t.Errorf("file count = %d, want %d", got, preCount)
	}
}

func TestSnapshotUndoesHandlesAndScalars(t *testing.T) {
	e := snapEnv()
	next0 := e.OpenHandleCount()
	e.SetLastError(ErrSuccess)

	snap := e.Snapshot()
	defer snap.Close()

	res := doReq(t, e, OpCreate, KindMutex, "!Marker")
	if !res.OK || res.Handle == 0 {
		t.Fatalf("create: %+v", res)
	}
	// A failing open sets last-error.
	doReq(t, e, OpOpen, KindMutex, "!Absent")
	if e.LastError() == ErrSuccess {
		t.Fatal("last-error not set by failed open")
	}

	e.Reset(snap)

	if e.OpenHandleCount() != next0 {
		t.Errorf("open handles = %d, want %d", e.OpenHandleCount(), next0)
	}
	if _, _, ok := e.HandleName(res.Handle); ok {
		t.Error("run handle still resolves after reset")
	}
	if e.LastError() != ErrSuccess {
		t.Errorf("last-error = %v, want success", e.LastError())
	}
	// Handle numbering restarts identically: the next run allocates the
	// same handle values (replay determinism).
	res2 := doReq(t, e, OpCreate, KindMutex, "!Marker")
	if res2.Handle != res.Handle {
		t.Errorf("handle after reset = %#x, want %#x", res2.Handle, res.Handle)
	}
}

func TestSnapshotUndoesInjectAndRemove(t *testing.T) {
	e := snapEnv()
	e.Inject(Resource{Kind: KindMutex, Name: "!Keep"})

	snap := e.Snapshot()
	defer snap.Close()

	e.Inject(Resource{Kind: KindMutex, Name: "!Vaccine"})
	e.Remove(KindMutex, "!Keep")
	e.Reset(snap)

	if e.Exists(KindMutex, "!Vaccine") {
		t.Error("injected resource survived reset")
	}
	if !e.Exists(KindMutex, "!Keep") {
		t.Error("removed resource not restored")
	}
}

func TestSnapshotUndoesNetwork(t *testing.T) {
	e := snapEnv()
	n := e.Net() // network exists before the snapshot

	snap := e.Snapshot()
	defer snap.Close()

	h, ok := n.HTTPGet("http://10.0.0.1/stage2.bin")
	if !ok {
		t.Fatal("HTTPGet failed")
	}
	s := Handle(0x7000)
	if !n.BindConnect(s, "10.0.0.1:80") {
		t.Fatal("connect failed")
	}
	e.Reset(snap)

	if n.SendPayload(h, nil) || n.SendPayload(s, nil) {
		t.Error("run socket still bound after reset")
	}
	// Request handle numbering restarts identically.
	h2, _ := n.HTTPGet("http://10.0.0.1/stage2.bin")
	if h2 != h {
		t.Errorf("request handle after reset = %#x, want %#x", h2, h)
	}
}

func TestSnapshotForgetsNetworkBornDuringRun(t *testing.T) {
	e := snapEnv()
	snap := e.Snapshot()
	defer snap.Close()
	e.Net().BindConnect(Handle(0x7000), "10.0.0.1:80") // first Net() call creates it
	e.Reset(snap)
	if e.net != nil {
		t.Error("network born during the run survived reset")
	}
}

func TestSnapshotHooksAddedDuringRunRemoved(t *testing.T) {
	e := snapEnv()
	e.AddHook(func(Request) *Result { return nil })
	snap := e.Snapshot()
	defer snap.Close()
	e.AddHook(func(Request) *Result { return nil })
	e.Reset(snap)
	if e.HookCount() != 1 {
		t.Errorf("hooks = %d, want 1", e.HookCount())
	}
}

func TestSnapshotNested(t *testing.T) {
	e := snapEnv()
	outer := e.Snapshot()
	e.Inject(Resource{Kind: KindMutex, Name: "!OuterRun"})

	inner := e.Snapshot()
	e.Inject(Resource{Kind: KindMutex, Name: "!InnerRun"})
	e.Reset(inner)
	if e.Exists(KindMutex, "!InnerRun") {
		t.Error("inner run state survived inner reset")
	}
	if !e.Exists(KindMutex, "!OuterRun") {
		t.Error("inner reset rewound past its own snapshot")
	}
	inner.Close()

	// The outer snapshot journalled !OuterRun too, even though the inner
	// snapshot was opened (and its journal discarded) in between.
	e.Reset(outer)
	if e.Exists(KindMutex, "!OuterRun") {
		t.Error("outer reset missed state journalled before the inner snapshot")
	}
	outer.Close()
}

func TestSnapshotResetRepeatable(t *testing.T) {
	e := snapEnv()
	snap := e.Snapshot()
	defer snap.Close()
	for i := 0; i < 3; i++ {
		res := doReq(t, e, OpCreate, KindMutex, "!Again")
		if !res.OK || res.Err == ErrAlreadyExists {
			t.Fatalf("iteration %d saw leaked state: %+v", i, res)
		}
		e.Reset(snap)
		if e.Exists(KindMutex, "!Again") {
			t.Fatalf("iteration %d: state survived reset", i)
		}
	}
}

func TestSnapshotMisusePanics(t *testing.T) {
	e := snapEnv()
	outer := e.Snapshot()
	inner := e.Snapshot()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Reset of non-innermost", func() { e.Reset(outer) })
	mustPanic("Close out of order", func() { outer.Close() })
	mustPanic("Reset on foreign env", func() { snapEnv().Reset(inner) })

	inner.Close()
	inner.Close() // double-close is a no-op
	outer.Close()

	mustPanic("Reset of closed snapshot", func() { e.Reset(outer) })
}

func TestSnapshotAffects(t *testing.T) {
	const read, unread = `C:\cfg\app.ini`, `C:\cfg\other.ini`
	set := func(name, data string) func(*Env) {
		return func(e *Env) { e.Inject(Resource{Kind: KindFile, Name: name, Owner: "system", Data: []byte(data)}) }
	}
	// The readers are the runs a read set is recorded from. offline
	// looks up one present file (in another spelling) and misses one
	// mutex; online also resolves a host; lister enumerates.
	offline := func(e *Env) {
		e.Exists(KindFile, `C:\CFG\APP.INI`)
		doReq(t, e, OpOpen, KindMutex, "!Probe")
	}
	online := func(e *Env) {
		offline(e)
		e.Net().Resolve("update.example")
	}
	lister := func(e *Env) { e.List(KindFile, "") }
	cases := []struct {
		name   string
		net    bool // the network exists when the snapshot is taken
		reader func(*Env)
		change func(*Env)
		want   bool
	}{
		{"nothing changed", false, offline, func(*Env) {}, false},
		{"identity", false, offline, func(e *Env) {
			id := e.Identity()
			id.ComputerName = "WIN-OTHER"
			e.SetIdentity(id)
		}, true},
		{"last error", false, offline, func(e *Env) { e.SetLastError(ErrAccessDenied) }, true},
		{"next handle", false, offline, func(e *Env) { e.next += 4 }, true},
		{"handle opened", false, offline, func(e *Env) {
			e.open(Request{Kind: KindMutex, Name: "!Other", Principal: "test"})
			e.next -= 4 // leave only the handle entry changed
		}, true},
		{"hook added", false, offline, func(e *Env) { e.AddHook(func(Request) *Result { return nil }) }, true},
		{"network created, run used it", false, online, func(e *Env) { e.Net() }, true},
		{"network created, run offline", false, offline, func(e *Env) { e.Net() }, false},
		{"network entry changed, run used it", true, online, func(e *Env) { e.Net().Blackhole("c2.example") }, true},
		{"network entry changed, run offline", true, offline, func(e *Env) { e.Net().Blackhole("c2.example") }, false},
		{"unscripted resolve, run used it", true, online, func(e *Env) { e.Net().Resolve("c2.example") }, false},
		{"resolve hook added, run used it", true, online, func(e *Env) {
			e.Net().AddResolveHook(func(string) ResolveVerdict { return VerdictNone })
		}, true},
		{"responder attached, run used it", true, online, func(e *Env) { e.Net().SetResponder(refuseAllResponder{}) }, true},
		{"read resource changed", false, offline, set(read, "v2"), true},
		{"read miss now present", false, offline, func(e *Env) {
			e.Inject(Resource{Kind: KindMutex, Name: "!PROBE"})
		}, true},
		{"read resource touched and restored", false, offline, func(e *Env) {
			inner := e.Snapshot()
			set(read, "v2")(e)
			e.Remove(KindFile, read)
			e.Reset(inner)
			inner.Close()
		}, false},
		{"unread resource changed", false, offline, set(unread, "v2"), false},
		{"reads everything, unread resource changed", false, lister, set(unread, "v2"), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := snapEnv()
			set(read, "v1")(e)
			set(unread, "v1")(e)
			if c.net {
				e.Net()
			}
			snap := e.Snapshot()
			defer snap.Close()
			rs := e.RecordReads()
			c.reader(e)
			e.StopReads()
			e.Reset(snap)
			if snap.Affects(rs) {
				t.Fatal("the rewound state already affects the run")
			}
			c.change(e)
			if got := snap.Affects(rs); got != c.want {
				t.Errorf("Affects = %v, want %v", got, c.want)
			}
		})
	}
}
