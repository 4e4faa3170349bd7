package determinism

import (
	"strings"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/taint"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

func TestClassStrings(t *testing.T) {
	cases := map[Class]string{
		Static: "static", PartialStatic: "partial-static",
		AlgorithmDeterministic: "algorithm-deterministic",
		NonDeterministic:       "non-deterministic",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d = %q, want %q", c, got, want)
		}
	}
}

// runSample executes a program with step recording and returns the
// trace.
func runSample(t *testing.T, prog *isa.Program, env *winenv.Env) *trace.Trace {
	t.Helper()
	tr, err := emu.Run(prog, env, emu.Options{Seed: 77, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit == trace.ExitFault {
		t.Fatalf("fault: %s", tr.Fault)
	}
	return tr
}

// findCall returns the first resource call to api.
func findCall(t *testing.T, tr *trace.Trace, api string) trace.APICall {
	t.Helper()
	calls := tr.CallsTo(api)
	if len(calls) == 0 {
		t.Fatalf("no calls to %s", api)
	}
	return calls[0]
}

func TestClassifyStaticIdentifier(t *testing.T) {
	b := isa.NewBuilder("static-id")
	b.RData("m", "_AVIRA_2109")
	b.CallAPI("CreateMutexA", isa.Sym("m"))
	b.Halt()
	tr := runSample(t, b.MustBuild(), winenv.New(winenv.DefaultIdentity()))
	res := Classify(findCall(t, tr, "CreateMutexA"), tr.Sources)
	if res.Class != Static || res.Pattern != "_AVIRA_2109" {
		t.Errorf("got %v pattern %q", res.Class, res.Pattern)
	}
}

func TestClassifyAlgorithmDeterministic(t *testing.T) {
	spec := &malware.Spec{Name: "algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	tr := runSample(t, prog, winenv.New(winenv.DefaultIdentity()))
	res := Classify(findCall(t, tr, "CreateMutexA"), tr.Sources)
	if res.Class != AlgorithmDeterministic {
		t.Fatalf("class = %v", res.Class)
	}
	if len(res.SemanticAPIs) != 1 || res.SemanticAPIs[0] != "GetComputerNameA" {
		t.Errorf("semantic root causes = %v", res.SemanticAPIs)
	}
}

func TestClassifyPartialStatic(t *testing.T) {
	spec := &malware.Spec{Name: "partial", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehPartialMutex, ID: "WORMX"}}}
	prog := malware.MustEmit(spec)
	tr := runSample(t, prog, winenv.New(winenv.DefaultIdentity()))
	res := Classify(findCall(t, tr, "CreateMutexA"), tr.Sources)
	if res.Class != PartialStatic {
		t.Fatalf("class = %v", res.Class)
	}
	if !strings.HasPrefix(res.Pattern, "WORMX-") || !strings.Contains(res.Pattern, "*") {
		t.Errorf("pattern = %q", res.Pattern)
	}
	if len(res.RandomAPIs) == 0 || res.RandomAPIs[0] != "GetTickCount" {
		t.Errorf("random root causes = %v", res.RandomAPIs)
	}
	// The observed concrete identifier matches its own pattern.
	if !MatchPattern(res.Pattern, findCall(t, tr, "CreateMutexA").Identifier) {
		t.Error("identifier does not match derived pattern")
	}
}

func TestClassifyRandomDiscarded(t *testing.T) {
	spec := &malware.Spec{Name: "rnd", Category: malware.Downloader,
		Behaviors: []malware.Behavior{{Kind: malware.BehRandomTemp}}}
	prog := malware.MustEmit(spec)
	tr := runSample(t, prog, winenv.New(winenv.DefaultIdentity()))
	res := Classify(findCall(t, tr, "GetTempFileNameA"), tr.Sources)
	if res.Class != NonDeterministic {
		t.Fatalf("class = %v, want non-deterministic", res.Class)
	}
}

func TestClassifyEmptyIdentifier(t *testing.T) {
	res := Classify(trace.APICall{}, nil)
	if res.Class != NonDeterministic {
		t.Errorf("empty identifier class = %v", res.Class)
	}
}

func TestClassifyViaHandleFallback(t *testing.T) {
	// A call without per-byte data and a non-random source class falls
	// back to static.
	call := trace.APICall{
		Identifier:   `C:\x\a.exe`,
		TaintSources: []taint.Source{0},
	}
	sources := []taint.SourceInfo{{Source: 0, API: "WriteFile", Class: "none"}}
	res := Classify(call, sources)
	if res.Class != Static {
		t.Errorf("class = %v", res.Class)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"WORMX-*", "WORMX-3f2a", true},
		{"WORMX-*", "wormx-3f2a", true}, // case-insensitive
		{"WORMX-*", "WORMY-3f2a", false},
		{"*", "anything", true},
		{"*", "", true},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "abc", true},
		{"a*b*c", "acb", false},
		{"exact", "exact", true},
		{"exact", "exact!", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, tc := range cases {
		if got := MatchPattern(tc.pattern, tc.s); got != tc.want {
			t.Errorf("MatchPattern(%q, %q) = %v, want %v", tc.pattern, tc.s, got, tc.want)
		}
	}
}

func TestExtractAndReplaySlice(t *testing.T) {
	// Conficker-style algorithm-deterministic mutex.
	spec := &malware.Spec{Name: "algoslice", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	env := winenv.New(winenv.DefaultIdentity())
	tr := runSample(t, prog, env)

	call := findCall(t, tr, "CreateMutexA")
	sl, err := Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if sl.SourceSteps == 0 {
		t.Fatal("empty slice")
	}
	// The slice contains the generation logic but not the payload.
	text := sl.Program.Disassemble()
	for _, want := range []string{"GetComputerNameA", "_snprintf"} {
		if !strings.Contains(text, want) {
			t.Errorf("slice missing %s:\n%s", want, text)
		}
	}
	if strings.Contains(text, "callapi CreateMutexA") {
		t.Error("slice includes the target call itself")
	}

	// Replay on the original host regenerates the observed identifier.
	got, err := sl.Replay(winenv.New(winenv.DefaultIdentity()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != call.Identifier {
		t.Errorf("replay = %q, want %q", got, call.Identifier)
	}

	// Replay on a different host computes that host's value — the whole
	// point of shipping a slice instead of a constant.
	other := winenv.DefaultIdentity()
	other.ComputerName = "FINANCE-PC-22"
	got2, err := sl.Replay(winenv.New(other), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != `Global\FINANCE-PC-22-7` {
		t.Errorf("cross-host replay = %q", got2)
	}
}

func TestExtractStaticIdentifierSliceIsTiny(t *testing.T) {
	b := isa.NewBuilder("static-slice")
	b.RData("m", "fx221")
	b.CallAPI("CreateMutexA", isa.Sym("m"))
	b.Halt()
	prog := b.MustBuild()
	tr := runSample(t, prog, winenv.New(winenv.DefaultIdentity()))
	call := findCall(t, tr, "CreateMutexA")
	sl, err := Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}
	// A static identifier needs only its address push (if that).
	if sl.SourceSteps > 2 {
		t.Errorf("static slice has %d steps", sl.SourceSteps)
	}
}

func TestExtractErrors(t *testing.T) {
	b := isa.NewBuilder("e")
	b.RData("m", "x")
	b.CallAPI("CreateMutexA", isa.Sym("m"))
	b.Halt()
	prog := b.MustBuild()

	// No steps recorded.
	trNoSteps, _ := emu.Run(prog, winenv.New(winenv.DefaultIdentity()), emu.Options{})
	if _, err := Extract(prog, trNoSteps, 0); err == nil {
		t.Error("Extract without steps succeeded")
	}

	// Bad sequence number.
	tr := runSample(t, prog, winenv.New(winenv.DefaultIdentity()))
	if _, err := Extract(prog, tr, 999); err == nil {
		t.Error("Extract with bad seq succeeded")
	}
}

func TestSliceReplayThroughLstrcat(t *testing.T) {
	// Identifier built by lstrcpy + lstrcat from the user name.
	b := isa.NewBuilder("cat-slice")
	b.RData("prefix", "mal_")
	b.Buf("uname", 32)
	b.Buf("name", 64)
	b.CallAPI("GetUserNameA", isa.Sym("uname"), isa.Imm(32))
	b.CallAPI("lstrcpyA", isa.Sym("name"), isa.Sym("prefix"))
	b.CallAPI("lstrcatA", isa.Sym("name"), isa.Sym("uname"))
	b.CallAPI("CreateMutexA", isa.Sym("name"))
	b.Halt()
	prog := b.MustBuild()
	tr := runSample(t, prog, winenv.New(winenv.DefaultIdentity()))
	call := findCall(t, tr, "CreateMutexA")
	if call.Identifier != "mal_alice" {
		t.Fatalf("identifier = %q", call.Identifier)
	}
	res := Classify(call, tr.Sources)
	if res.Class != AlgorithmDeterministic {
		t.Fatalf("class = %v", res.Class)
	}
	sl, err := Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}
	other := winenv.DefaultIdentity()
	other.UserName = "bob"
	got, err := sl.Replay(winenv.New(other), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != "mal_bob" {
		t.Errorf("replay = %q, want mal_bob", got)
	}
}
