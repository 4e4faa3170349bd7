package winapi

import (
	"strings"
	"testing"

	"autovac/internal/taint"
	"autovac/internal/winenv"
)

func TestStandardRegistry(t *testing.T) {
	r := Standard()
	if r.Len() < 60 {
		t.Errorf("Standard registry has %d APIs, want >= 60", r.Len())
	}
	res := r.ResourceAPIs()
	if len(res) < 25 {
		t.Errorf("resource-labelled APIs = %d, want >= 25", len(res))
	}
	// Registration order is stable and Names matches Len.
	if len(r.Names()) != r.Len() {
		t.Error("Names()/Len() mismatch")
	}
	// Table I's two canonical examples are present with the documented
	// labelling.
	om, ok := r.Lookup("OpenMutexA")
	if !ok {
		t.Fatal("OpenMutexA missing")
	}
	if om.Label.Resource != winenv.KindMutex || om.Label.Taint != TaintReturn ||
		om.Label.IdentifierArg != 0 || om.Label.FailureErr != winenv.ErrFileNotFound {
		t.Errorf("OpenMutexA label = %+v", om.Label)
	}
	rf, ok := r.Lookup("ReadFile")
	if !ok {
		t.Fatal("ReadFile missing")
	}
	if rf.Label.Resource != winenv.KindFile || !rf.Label.IdentifierViaHandle {
		t.Errorf("ReadFile label = %+v", rf.Label)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	r := NewRegistry()
	s := Spec{Name: "X", Impl: func(Machine, []Arg, taint.Set) (Outcome, error) { return Outcome{}, nil }}
	r.Register(s)
	r.Register(s)
}

func TestSourceClassString(t *testing.T) {
	if ClassNone.String() != "none" || ClassSemantic.String() != "semantic" || ClassRandom.String() != "random" {
		t.Error("SourceClass strings wrong")
	}
}

func TestMutexAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	name := m.putString(0x1000, "_AVIRA_2109")

	// Open of a missing mutex fails with NULL / FILE_NOT_FOUND.
	out, err := m.call(r, "OpenMutexA", name)
	if err != nil {
		t.Fatal(err)
	}
	if out.Success || out.Ret != 0 {
		t.Errorf("open missing mutex: %+v", out)
	}
	if m.env.LastError() != winenv.ErrFileNotFound {
		t.Errorf("LastError = %v", m.env.LastError())
	}

	// Create it; open then succeeds with a handle.
	out, err = m.call(r, "CreateMutexA", name)
	if err != nil || !out.Success || out.Ret == 0 {
		t.Fatalf("create: %+v, %v", out, err)
	}
	out, err = m.call(r, "OpenMutexA", name)
	if err != nil || !out.Success || out.Ret == 0 {
		t.Fatalf("open after create: %+v, %v", out, err)
	}

	// Second create succeeds but leaves ERROR_ALREADY_EXISTS.
	out, _ = m.call(r, "CreateMutexA", name)
	if !out.Success {
		t.Errorf("second create: %+v", out)
	}
	if m.env.LastError() != winenv.ErrAlreadyExists {
		t.Errorf("LastError = %v, want ALREADY_EXISTS", m.env.LastError())
	}
}

func TestCreateFileDispositions(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	name := m.putString(0x1000, `C:\Windows\system32\sdra64.exe`)

	// OPEN_EXISTING on a missing file fails with INVALID_HANDLE_VALUE.
	out, err := m.call(r, "CreateFileA", name, 0, OpenExisting)
	if err != nil {
		t.Fatal(err)
	}
	if out.Success || out.Ret != InvalidHandleValue {
		t.Errorf("open missing: %+v", out)
	}
	if out.OpOverride != winenv.OpOpen {
		t.Errorf("open override = %v", out.OpOverride)
	}

	// CREATE_NEW succeeds, then fails on the second attempt.
	out, _ = m.call(r, "CreateFileA", name, 0, CreateNew)
	if !out.Success {
		t.Fatalf("create new: %+v", out)
	}
	out, _ = m.call(r, "CreateFileA", name, 0, CreateNew)
	if out.Success {
		t.Errorf("duplicate create new: %+v", out)
	}

	// CREATE_ALWAYS succeeds on an existing file (truncate-open).
	out, _ = m.call(r, "CreateFileA", name, 0, CreateAlways)
	if !out.Success {
		t.Errorf("create always: %+v", out)
	}
}

func TestReadWriteFileViaHandle(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	name := m.putString(0x1000, `C:\x\data.bin`)
	out, _ := m.call(r, "CreateFileA", name, 0, CreateNew)
	h := out.Ret

	payload := m.putString(0x2000, "MZ-payload")
	out, err := m.call(r, "WriteFile", h, payload, 10)
	if err != nil || !out.Success {
		t.Fatalf("WriteFile: %+v, %v", out, err)
	}

	out, err = m.call(r, "ReadFile", h, 0x3000, 10)
	if err != nil || !out.Success {
		t.Fatalf("ReadFile: %+v, %v", out, err)
	}
	got, _, _ := m.ReadBytes(0x3000, 10)
	if string(got) != "MZ-payload" {
		t.Errorf("read back %q", got)
	}

	// Bad handle fails and sets ERROR_INVALID_HANDLE.
	out, _ = m.call(r, "ReadFile", 0xBEEF, 0x3000, 4)
	if out.Success {
		t.Error("ReadFile on bad handle succeeded")
	}
	if m.env.LastError() != winenv.ErrInvalidHandle {
		t.Errorf("LastError = %v", m.env.LastError())
	}
}

func TestFileQueryDeleteCopy(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	src := m.putString(0x1000, `C:\a.exe`)
	dst := m.putString(0x1100, `C:\b.exe`)

	out, _ := m.call(r, "GetFileAttributesA", src)
	if out.Success || out.Ret != InvalidFileAttributes {
		t.Errorf("query missing: %+v", out)
	}

	m.call(r, "CreateFileA", src, 0, CreateNew)
	out, _ = m.call(r, "GetFileAttributesA", src)
	if !out.Success || out.Ret != 0x20 {
		t.Errorf("query existing: %+v", out)
	}

	out, _ = m.call(r, "CopyFileA", src, dst, 1)
	if !out.Success {
		t.Errorf("copy: %+v", out)
	}
	// failIfExists honours existing destination.
	out, _ = m.call(r, "CopyFileA", src, dst, 1)
	if out.Success {
		t.Errorf("copy over existing with failIfExists: %+v", out)
	}
	// Without failIfExists it overwrites.
	out, _ = m.call(r, "CopyFileA", src, dst, 0)
	if !out.Success {
		t.Errorf("overwrite copy: %+v", out)
	}

	out, _ = m.call(r, "DeleteFileA", dst)
	if !out.Success {
		t.Errorf("delete: %+v", out)
	}
	out, _ = m.call(r, "DeleteFileA", dst)
	if out.Success {
		t.Errorf("double delete: %+v", out)
	}
}

func TestRegistryAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	path := m.putString(0x1000, `HKLM\Software\Evil`)
	phKey := uint32(0x2000)

	// Open missing fails with the status in EAX.
	out, _ := m.call(r, "RegOpenKeyExA", path, phKey)
	if out.Success || out.Ret != uint32(winenv.ErrFileNotFound) {
		t.Errorf("open missing key: %+v", out)
	}

	// Create writes the handle through the out-arg.
	out, _ = m.call(r, "RegCreateKeyExA", path, phKey)
	if !out.Success || out.Ret != 0 {
		t.Fatalf("create key: %+v", out)
	}
	h, _, _ := m.ReadWord(phKey)
	if h == 0 {
		t.Fatal("no handle written")
	}

	// Set then query a value (stored as key\value resource).
	valName := m.putString(0x1200, "Shell")
	data := m.putString(0x1300, "evil.exe")
	out, _ = m.call(r, "RegSetValueExA", h, valName, data, 8)
	if !out.Success {
		t.Fatalf("set value: %+v", out)
	}
	if !m.env.Exists(winenv.KindRegistry, `HKLM\Software\Evil\Shell`) {
		t.Error("value resource not created")
	}
	out, _ = m.call(r, "RegQueryValueExA", h, valName, 0x3000, 8)
	if !out.Success {
		t.Fatalf("query value: %+v", out)
	}
	got, _, _ := m.ReadBytes(0x3000, 8)
	if string(got) != "evil.exe" {
		t.Errorf("value = %q", got)
	}

	// RegCreateKeyEx on an existing key opens it.
	out, _ = m.call(r, "RegCreateKeyExA", path, phKey)
	if !out.Success {
		t.Errorf("re-create key: %+v", out)
	}

	// Delete.
	out, _ = m.call(r, "RegDeleteKeyA", path)
	if !out.Success {
		t.Errorf("delete key: %+v", out)
	}

	// Close with a bad handle.
	out, _ = m.call(r, "RegCloseKey", 0xBEEF)
	if out.Success {
		t.Error("close bad key handle succeeded")
	}
}

func TestProcessAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	// Inject into explorer.exe: open, write, remote thread.
	target := m.putString(0x1000, "explorer.exe")
	out, _ := m.call(r, "OpenProcessByNameA", target)
	if !out.Success || out.Ret == 0 {
		t.Fatalf("open explorer: %+v", out)
	}
	h := out.Ret
	out, _ = m.call(r, "WriteProcessMemory", h, 0x2000, 64)
	if !out.Success {
		t.Errorf("WriteProcessMemory: %+v", out)
	}
	out, _ = m.call(r, "CreateRemoteThread", h, 0x2000)
	if !out.Success {
		t.Errorf("CreateRemoteThread: %+v", out)
	}

	// Missing victim process.
	ghost := m.putString(0x1100, "nothere.exe")
	out, _ = m.call(r, "OpenProcessByNameA", ghost)
	if out.Success {
		t.Errorf("open missing process: %+v", out)
	}

	// CreateProcessA needs the image file present (or a system image).
	img := m.putString(0x1200, `C:\mal\drop.exe`)
	out, _ = m.call(r, "CreateProcessA", img)
	if out.Success {
		t.Errorf("create process without image: %+v", out)
	}
	m.call(r, "CreateFileA", img, 0, CreateNew)
	out, _ = m.call(r, "CreateProcessA", img)
	if !out.Success {
		t.Errorf("create process with image: %+v", out)
	}
	if !m.env.Exists(winenv.KindProcess, "drop.exe") {
		t.Error("process resource not created")
	}

	// Self-termination requests an exit.
	out, _ = m.call(r, "ExitProcess", 7)
	if out.Exit != ExitProcessKind || out.ExitCode != 7 {
		t.Errorf("ExitProcess: %+v", out)
	}
	out, _ = m.call(r, "TerminateProcess", CurrentProcessPseudoHandle, 3)
	if out.Exit != ExitProcessKind || out.ExitCode != 3 {
		t.Errorf("TerminateProcess(self): %+v", out)
	}
	out, _ = m.call(r, "ExitThread", 0)
	if out.Exit != ExitThreadKind {
		t.Errorf("ExitThread: %+v", out)
	}
}

func TestServiceAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	out, _ := m.call(r, "OpenSCManagerA")
	if !out.Success || out.Ret == 0 {
		t.Fatalf("OpenSCManager: %+v", out)
	}
	scm := out.Ret

	name := m.putString(0x1000, "qatpcks")
	bin := m.putString(0x1100, `C:\Windows\system32\driver\qatpcks.sys`)
	out, _ = m.call(r, "CreateServiceA", scm, name, bin)
	if !out.Success || out.Ret == 0 {
		t.Fatalf("CreateService: %+v", out)
	}
	svc := out.Ret

	out, _ = m.call(r, "StartServiceA", svc)
	if !out.Success {
		t.Errorf("StartService: %+v", out)
	}

	out, _ = m.call(r, "OpenServiceA", scm, name)
	if !out.Success {
		t.Errorf("OpenService: %+v", out)
	}

	out, _ = m.call(r, "DeleteService", svc)
	if !out.Success {
		t.Errorf("DeleteService: %+v", out)
	}

	// Duplicate create fails with SERVICE_EXISTS semantics.
	m.call(r, "CreateServiceA", scm, name, bin)
	out, _ = m.call(r, "CreateServiceA", scm, name, bin)
	if out.Success {
		t.Errorf("duplicate CreateService: %+v", out)
	}
}

func TestWindowAndLibraryAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	cls := m.putString(0x1000, "EVIL_ADWINDOW")
	out, _ := m.call(r, "FindWindowA", cls)
	if out.Success {
		t.Errorf("find missing window: %+v", out)
	}
	out, _ = m.call(r, "CreateWindowExA", cls, cls)
	if !out.Success {
		t.Fatalf("create window: %+v", out)
	}
	hwnd := out.Ret
	out, _ = m.call(r, "FindWindowA", cls)
	if !out.Success {
		t.Errorf("find window after create: %+v", out)
	}
	out, _ = m.call(r, "ShowWindow", hwnd, 1)
	if !out.Success {
		t.Errorf("show window: %+v", out)
	}
	out, _ = m.call(r, "DestroyWindow", hwnd)
	if !out.Success {
		t.Errorf("destroy window: %+v", out)
	}

	lib := m.putString(0x1100, "kernel32.dll")
	out, _ = m.call(r, "LoadLibraryA", lib)
	if !out.Success {
		t.Fatalf("LoadLibrary kernel32: %+v", out)
	}
	hmod := out.Ret
	proc := m.putString(0x1200, "CreateFileA")
	out, _ = m.call(r, "GetProcAddress", hmod, proc)
	if !out.Success || out.Ret == 0 {
		t.Errorf("GetProcAddress: %+v", out)
	}
	missing := m.putString(0x1300, "nosuch.dll")
	out, _ = m.call(r, "LoadLibraryA", missing)
	if out.Success {
		t.Errorf("LoadLibrary missing: %+v", out)
	}
	if m.env.LastError() != winenv.ErrModuleNotFound {
		t.Errorf("LastError = %v", m.env.LastError())
	}
	out, _ = m.call(r, "GetModuleHandleA", lib)
	if !out.Success || out.Ret == 0 {
		t.Errorf("GetModuleHandle: %+v", out)
	}
}

func TestInfoAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	out, _ := m.call(r, "GetComputerNameA", 0x1000, 64)
	if !out.Success {
		t.Fatalf("GetComputerName: %+v", out)
	}
	name, _, _ := m.ReadCString(0x1000)
	if name != "WIN-AUTOVAC01" {
		t.Errorf("computer name = %q", name)
	}

	out, _ = m.call(r, "GetVolumeInformationA", 0x1100)
	if !out.Success {
		t.Fatal("GetVolumeInformation failed")
	}
	serial, _, _ := m.ReadWord(0x1100)
	if serial != 0x5A17C0DE {
		t.Errorf("serial = %#x", serial)
	}

	// Random APIs draw from the machine PRNG (deterministic sequence).
	out1, _ := m.call(r, "GetTickCount")
	out2, _ := m.call(r, "GetTickCount")
	if out1.Ret == out2.Ret {
		t.Error("GetTickCount not advancing")
	}

	m.env.SetLastError(winenv.ErrAccessDenied)
	out, _ = m.call(r, "GetLastError")
	if out.Ret != uint32(winenv.ErrAccessDenied) {
		t.Errorf("GetLastError = %d", out.Ret)
	}
}

func TestStringAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	a := m.putString(0x1000, "Global\\X-99")
	b := m.putString(0x1100, "Global\\X-99")
	c := m.putString(0x1200, "global\\x-99")

	out, _ := m.call(r, "lstrcmpA", a, b)
	if out.Ret != 0 {
		t.Errorf("lstrcmp equal = %d", out.Ret)
	}
	out, _ = m.call(r, "lstrcmpA", a, c)
	if out.Ret == 0 {
		t.Errorf("lstrcmp case-different = 0")
	}
	out, _ = m.call(r, "lstrcmpiA", a, c)
	if out.Ret != 0 {
		t.Errorf("lstrcmpi case-insensitive = %d", out.Ret)
	}

	out, _ = m.call(r, "lstrlenA", a)
	if out.Ret != uint32(len("Global\\X-99")) {
		t.Errorf("lstrlen = %d", out.Ret)
	}

	dst := uint32(0x2000)
	m.putString(dst, "pre-")
	out, _ = m.call(r, "lstrcatA", dst, a)
	if !out.Success {
		t.Fatalf("lstrcat: %+v", out)
	}
	got, _, _ := m.ReadCString(dst)
	if got != "pre-Global\\X-99" {
		t.Errorf("lstrcat result = %q", got)
	}

	m.call(r, "lstrcpyA", 0x2100, a)
	got, _, _ = m.ReadCString(0x2100)
	if got != "Global\\X-99" {
		t.Errorf("lstrcpy result = %q", got)
	}
}

func TestSnprintf(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	format := m.putString(0x1000, "Global\\%s-%d")
	name := m.putString(0x1100, "WIN01")
	buf := uint32(0x2000)

	out, err := m.call(r, "_snprintf", buf, 64, format, name, 99)
	if err != nil || !out.Success {
		t.Fatalf("_snprintf: %+v, %v", out, err)
	}
	got, _, _ := m.ReadCString(buf)
	if got != "Global\\WIN01-99" {
		t.Errorf("result = %q", got)
	}
	if out.Ret != uint32(len(got)) {
		t.Errorf("ret = %d, want %d", out.Ret, len(got))
	}

	// Size limiting truncates.
	out, _ = m.call(r, "_snprintf", buf, 8, format, name, 99)
	got, _, _ = m.ReadCString(buf)
	if len(got) != 7 {
		t.Errorf("truncated result = %q (len %d)", got, len(got))
	}

	// Hex and char verbs.
	f2 := m.putString(0x1200, "mal-%x-%c")
	m.call(r, "_snprintf", buf, 64, f2, 0xBEEF, uint32('Z'))
	got, _, _ = m.ReadCString(buf)
	if got != "mal-beef-Z" {
		t.Errorf("hex/char result = %q", got)
	}

	// Literal %% and unknown verbs pass through.
	f3 := m.putString(0x1300, "100%%-%q")
	m.call(r, "_snprintf", buf, 64, f3)
	got, _, _ = m.ReadCString(buf)
	if got != "100%-%q" {
		t.Errorf("literal result = %q", got)
	}

	// Too few arguments is an implementation error.
	if _, err := m.call(r, "_snprintf", buf, 64, format); err == nil {
		t.Error("snprintf with missing args succeeded")
	}

	// wsprintfA: unsized variant.
	out, err = m.call(r, "wsprintfA", buf, format, name, 7)
	if err != nil || !out.Success {
		t.Fatalf("wsprintfA: %+v, %v", out, err)
	}
	got, _, _ = m.ReadCString(buf)
	if got != "Global\\WIN01-7" {
		t.Errorf("wsprintf result = %q", got)
	}
}

func TestSnprintfTaintSegments(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	format := m.putString(0x1000, "pfx-%s-sfx")
	// Tainted source string: label 5 on each byte.
	src := taint.Of(5)
	if err := m.WriteCString(0x1100, "HOST", src); err != nil {
		t.Fatal(err)
	}
	buf := uint32(0x2000)
	if _, err := m.call(r, "_snprintf", buf, 64, format, 0x1100); err != nil {
		t.Fatal(err)
	}
	got, _, _ := m.ReadCString(buf)
	if got != "pfx-HOST-sfx" {
		t.Fatalf("result = %q", got)
	}
	// Literal bytes untainted; the HOST bytes carry label 5.
	for i, want := range []bool{false, false, false, false, true, true, true, true, false} {
		tnt := m.taint[buf+uint32(i)]
		if tnt.Has(5) != want {
			t.Errorf("byte %d taint = %v, want tainted=%v", i, tnt, want)
		}
	}
}

func TestItoa(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	m.call(r, "_itoa", 255, 0x1000, 10)
	got, _, _ := m.ReadCString(0x1000)
	if got != "255" {
		t.Errorf("itoa base 10 = %q", got)
	}
	m.call(r, "_itoa", 255, 0x1000, 16)
	got, _, _ = m.ReadCString(0x1000)
	if got != "ff" {
		t.Errorf("itoa base 16 = %q", got)
	}
}

func TestNetAPIs(t *testing.T) {
	r := Standard()
	m := newFakeMachine()

	host := m.putString(0x1000, "cc.botnet.example")
	out, _ := m.call(r, "gethostbyname", host)
	if !out.Success {
		t.Errorf("gethostbyname: %+v", out)
	}

	out, _ = m.call(r, "socket")
	s := out.Ret
	target := m.putString(0x1100, "cc.botnet.example:443")
	out, _ = m.call(r, "connect", s, target)
	if !out.Success || out.Ret != 0 {
		t.Errorf("connect: %+v", out)
	}
	out, _ = m.call(r, "send", s, 0x2000, 128)
	if !out.Success || out.Ret != 128 {
		t.Errorf("send: %+v", out)
	}
	out, _ = m.call(r, "recv", s, 0x3000, 32)
	if !out.Success || out.Ret != 32 {
		t.Errorf("recv: %+v", out)
	}
	m.call(r, "closesocket", s)

	// Blackholed targets fail to connect.
	m.env.Net().Blackhole("dead.example:80")
	dead := m.putString(0x1200, "dead.example:80")
	out, _ = m.call(r, "connect", s, dead)
	if out.Success {
		t.Errorf("connect to blackholed: %+v", out)
	}

	// WinINet path.
	agent := m.putString(0x1300, "MalAgent")
	out, _ = m.call(r, "InternetOpenA", agent)
	h := out.Ret
	url := m.putString(0x1400, "http://cc.example/cmd")
	out, _ = m.call(r, "InternetOpenUrlA", h, url)
	if !out.Success {
		t.Errorf("InternetOpenUrl: %+v", out)
	}
	out, _ = m.call(r, "InternetReadFile", out.Ret, 0x4000, 16)
	if !out.Success || out.Ret != 1 {
		t.Errorf("InternetReadFile: %+v", out)
	}
}

func TestAPIClassifierLists(t *testing.T) {
	r := Standard()
	for _, list := range [][]string{
		TerminationAPIs(), KernelInjectionAPIs(), ProcessInjectionAPIs(), NetworkAPIs(),
	} {
		for _, name := range list {
			if _, ok := r.Lookup(name); !ok {
				t.Errorf("classifier API %q not registered", name)
			}
		}
	}
}

func TestGetModuleFileName(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	out, _ := m.call(r, "GetModuleFileNameA", 0, 0x1000, 260)
	if !out.Success {
		t.Fatalf("GetModuleFileName: %+v", out)
	}
	got, _, _ := m.ReadCString(0x1000)
	if !strings.HasSuffix(got, "test-prog.exe") {
		t.Errorf("self path = %q", got)
	}
}

func TestGetTempFileName(t *testing.T) {
	r := Standard()
	m := newFakeMachine()
	prefix := m.putString(0x1000, "mal")
	out, _ := m.call(r, "GetTempFileNameA", prefix, 0x1100)
	if !out.Success {
		t.Fatalf("GetTempFileName: %+v", out)
	}
	name, _, _ := m.ReadCString(0x1100)
	if !strings.HasPrefix(name, `C:\Temp\mal`) || !strings.HasSuffix(name, ".tmp") {
		t.Errorf("temp name = %q", name)
	}
	if out.Identifier != name {
		t.Errorf("identifier override = %q, want %q", out.Identifier, name)
	}
	if !m.env.Exists(winenv.KindFile, name) {
		t.Error("temp file not created")
	}
	// The API is labelled random — determinism analysis will discard it.
	spec, _ := r.Lookup("GetTempFileNameA")
	if spec.Label.Class != ClassRandom {
		t.Error("GetTempFileNameA not ClassRandom")
	}
}

func TestStandardRegistriesShared(t *testing.T) {
	if Standard() != Standard() || StandardC2() != StandardC2() {
		t.Error("standard registry rebuilt on a later call")
	}
	if Standard() == StandardC2() {
		t.Error("Standard and StandardC2 share one registry")
	}
}
