package emu

import (
	"strings"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// mutexChecker builds the canonical infection-marker program: open a
// marker mutex, exit if present, otherwise create it and do work.
func mutexChecker(name string) *isa.Program {
	b := isa.NewBuilder("mutex-checker")
	b.RData("marker", name)
	b.CallAPI("OpenMutexA", isa.Sym("marker"))
	b.Test(isa.R(isa.EAX), isa.R(isa.EAX))
	b.Jnz("infected")
	b.CallAPI("CreateMutexA", isa.Sym("marker"))
	b.CallAPI("Sleep", isa.Imm(10)).Comment("malicious work placeholder")
	b.Halt()
	b.Label("infected")
	b.CallAPI("ExitProcess", isa.Imm(0))
	return b.MustBuild()
}

func TestMutexCheckerCleanHost(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	tr, err := Run(mutexChecker("!VoqA.I4"), env, Options{Seed: 1, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q), want halt", tr.Exit, tr.Fault)
	}
	// The marker was created.
	if !env.Exists(winenv.KindMutex, "!VoqA.I4") {
		t.Error("marker mutex not created")
	}
	// The OpenMutexA result fed a predicate: Phase-I flags this sample.
	if !tr.HasTaintedPredicate() {
		t.Error("no tainted predicate recorded")
	}
	// Call log has context.
	open := tr.CallsTo("OpenMutexA")
	if len(open) != 1 {
		t.Fatalf("OpenMutexA calls = %d", len(open))
	}
	c := open[0]
	if c.Identifier != "!VoqA.I4" || c.ResourceKind != "mutex" || c.Op != "open" ||
		c.Success || c.Ret != 0 {
		t.Errorf("open call = %+v", c)
	}
	if c.LastError != uint32(winenv.ErrFileNotFound) {
		t.Errorf("LastError = %d", c.LastError)
	}
	if len(c.TaintSources) != 1 {
		t.Errorf("taint sources = %v", c.TaintSources)
	}
	// The trace carries the source table.
	if len(tr.Sources) == 0 {
		t.Fatal("no source table in trace")
	}
	info := tr.Sources[c.TaintSources[0]]
	if info.API != "OpenMutexA" || info.Identifier != "!VoqA.I4" {
		t.Errorf("source info = %+v", info)
	}
}

func TestMutexCheckerVaccinatedHost(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	env.Inject(winenv.Resource{Kind: winenv.KindMutex, Name: "!VoqA.I4"})
	tr, err := Run(mutexChecker("!VoqA.I4"), env, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitProcess {
		t.Fatalf("exit = %v, want exit-process (immunized)", tr.Exit)
	}
	// The work APIs never ran.
	if len(tr.CallsTo("Sleep")) != 0 {
		t.Error("malware work executed despite vaccine")
	}
	if len(tr.CallsTo("ExitProcess")) != 1 {
		t.Error("ExitProcess not logged")
	}
}

func TestForceSuccessMutationSimulatesMarker(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	tr, err := Run(mutexChecker("!VoqA.I4"), env, Options{
		Seed: 1,
		Mutations: []Mutation{{
			API: "OpenMutexA", CallerPC: -1, Identifier: "!voqa.i4", Mode: ForceSuccess,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitProcess {
		t.Fatalf("exit = %v, want exit-process under mutation", tr.Exit)
	}
	open := tr.CallsTo("OpenMutexA")[0]
	if !open.Mutated || !open.Success {
		t.Errorf("open call = %+v, want mutated success", open)
	}
	if !tr.Mutated {
		t.Error("trace not marked mutated")
	}
	// The mutation must not have side effects: no mutex in the env.
	if env.Exists(winenv.KindMutex, "!VoqA.I4") {
		t.Error("mutation leaked a resource into the environment")
	}
}

func TestForceFailureMutation(t *testing.T) {
	// A dropper that needs its file: CreateFile must succeed or it
	// gives up without persistence.
	b := isa.NewBuilder("dropper")
	b.RData("path", `C:\Windows\system32\twinrsdi.exe`)
	b.RData("runkey", `HKLM\Software\Microsoft\Windows\CurrentVersion\Run`)
	b.Buf("hkey", 4)
	b.CallAPI("CreateFileA", isa.Sym("path"), isa.Imm(0), isa.Imm(CreateNewDisposition))
	b.Cmp(isa.R(isa.EAX), isa.Imm(0xFFFFFFFF))
	b.Jz("fail")
	b.CallAPI("RegOpenKeyExA", isa.Sym("runkey"), isa.Sym("hkey"))
	b.Halt()
	b.Label("fail")
	b.CallAPI("ExitProcess", isa.Imm(1))
	prog := b.MustBuild()

	// Normal run drops the file and touches the Run key.
	env := winenv.New(winenv.DefaultIdentity())
	tr, err := Run(prog, env, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitHalt || len(tr.CallsTo("RegOpenKeyExA")) != 1 {
		t.Fatalf("normal run: exit=%v calls=%d", tr.Exit, len(tr.Calls))
	}

	// Mutated run: file creation fails, malware exits.
	env2 := winenv.New(winenv.DefaultIdentity())
	tr2, err := Run(prog, env2, Options{
		Seed: 2,
		Mutations: []Mutation{{
			API: "CreateFileA", CallerPC: -1,
			Identifier: `C:\Windows\system32\twinrsdi.exe`, Mode: ForceFailure,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Exit != trace.ExitProcess || tr2.ExitCode != 1 {
		t.Fatalf("mutated run: exit=%v code=%d", tr2.Exit, tr2.ExitCode)
	}
	if len(tr2.CallsTo("RegOpenKeyExA")) != 0 {
		t.Error("persistence ran despite forced failure")
	}
	if env2.Exists(winenv.KindFile, `C:\Windows\system32\twinrsdi.exe`) {
		t.Error("forced-failure still created the file")
	}
}

// algoMutex builds the Figure-2-style program: derive a mutex name from
// the computer name via _snprintf("Global\\%s-99").
func algoMutex() *isa.Program {
	b := isa.NewBuilder("algo-mutex")
	b.RData("fmt", `Global\%s-99`)
	b.Buf("cname", 32)
	b.Buf("mname", 64)
	b.CallAPI("GetComputerNameA", isa.Sym("cname"), isa.Imm(32))
	b.CallAPI("_snprintf", isa.Sym("mname"), isa.Imm(64), isa.Sym("fmt"), isa.Sym("cname"))
	b.CallAPI("CreateMutexA", isa.Sym("mname"))
	b.CallAPI("GetLastError")
	b.Cmp(isa.R(isa.EAX), isa.Imm(uint32(winenv.ErrAlreadyExists)))
	b.Jz("infected")
	b.Halt()
	b.Label("infected")
	b.CallAPI("ExitProcess", isa.Imm(0))
	return b.MustBuild()
}

func TestAlgorithmDeterministicIdentifier(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	tr, err := Run(algoMutex(), env, Options{Seed: 3, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
	}
	create := tr.CallsTo("CreateMutexA")
	if len(create) != 1 {
		t.Fatalf("CreateMutexA calls = %d", len(create))
	}
	want := `Global\WIN-AUTOVAC01-99`
	if create[0].Identifier != want {
		t.Fatalf("identifier = %q, want %q", create[0].Identifier, want)
	}
	// Per-byte provenance: "Global\" prefix static (no taint), the
	// computer-name bytes carry the GetComputerNameA (semantic) label,
	// the "-99" suffix static again.
	it := create[0].IdentifierTaint
	if len(it) != len(want) {
		t.Fatalf("IdentifierTaint len = %d, want %d", len(it), len(want))
	}
	prefix := len(`Global\`)
	nameLen := len("WIN-AUTOVAC01")
	for i := range it {
		inName := i >= prefix && i < prefix+nameLen
		if inName && len(it[i]) == 0 {
			t.Errorf("byte %d (%c): expected semantic taint", i, want[i])
		}
		if !inName && len(it[i]) != 0 {
			t.Errorf("byte %d (%c): unexpected taint %v", i, want[i], it[i])
		}
	}
	// The semantic source resolves to GetComputerNameA.
	srcID := it[prefix][0]
	info := tr.Sources[srcID]
	if info.API != "GetComputerNameA" || info.Class != "semantic" {
		t.Errorf("name byte source = %+v", info)
	}
	// Steps recorded with API linkage.
	if len(tr.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
	foundAPI := false
	for _, s := range tr.Steps {
		if s.Instr.Op == isa.CALLAPI && s.APISeq >= 0 {
			foundAPI = true
		}
	}
	if !foundAPI {
		t.Error("no CALLAPI step with APISeq linkage")
	}
	// GetLastError's result is tainted by the preceding CreateMutexA,
	// so the error-check branch registers as a tainted predicate.
	if !tr.HasTaintedPredicate() {
		t.Error("GetLastError comparison did not register as tainted predicate")
	}
}

func TestGetLastErrorTaintReachesPredicate(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	env.Inject(winenv.Resource{Kind: winenv.KindMutex, Name: `Global\WIN-AUTOVAC01-99`})
	tr, err := Run(algoMutex(), env, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With the vaccine mutex injected, CreateMutex reports
	// ALREADY_EXISTS and the malware exits.
	if tr.Exit != trace.ExitProcess {
		t.Fatalf("exit = %v, want exit-process", tr.Exit)
	}
}

func TestStackBalanceAcrossAPICalls(t *testing.T) {
	b := isa.NewBuilder("balance")
	b.RData("name", "m")
	b.Mov(isa.R(isa.EBX), isa.R(isa.ESP)).Comment("remember esp")
	b.CallAPI("CreateMutexA", isa.Sym("name"))
	b.CallAPI("GetTickCount")
	b.CallAPI("Sleep", isa.Imm(1))
	b.Sub(isa.R(isa.EBX), isa.R(isa.ESP)).Comment("ebx = old esp - esp")
	b.Halt()
	prog := b.MustBuild()

	c, err := New(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Execute()
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
	}
	if got := c.Reg(isa.EBX); got != 0 {
		t.Errorf("stack imbalance: %d bytes", int32(got))
	}
}

func TestLocalCallRet(t *testing.T) {
	b := isa.NewBuilder("callret")
	b.Mov(isa.R(isa.ECX), isa.Imm(0))
	b.Call("fn")
	b.Call("fn")
	b.Halt()
	b.Label("fn")
	b.Inc(isa.R(isa.ECX))
	b.Ret()
	prog := b.MustBuild()

	c, _ := New(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	tr := c.Execute()
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
	}
	if c.Reg(isa.ECX) != 2 {
		t.Errorf("ecx = %d, want 2", c.Reg(isa.ECX))
	}
}

func TestCallStackInAPILog(t *testing.T) {
	b := isa.NewBuilder("ctx")
	b.RData("name", "m")
	b.Call("helper")
	b.Halt()
	b.Label("helper")
	b.CallAPI("CreateMutexA", isa.Sym("name"))
	b.Ret()
	prog := b.MustBuild()

	tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := tr.CallsTo("CreateMutexA")
	if len(calls) != 1 || len(calls[0].CallStack) != 1 {
		t.Fatalf("call stack = %+v", calls)
	}
}

func TestALUAndMovb(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.Buf("buf", 8)
	b.Mov(isa.R(isa.EAX), isa.Imm(10))
	b.Add(isa.R(isa.EAX), isa.Imm(5))    // 15
	b.Sub(isa.R(isa.EAX), isa.Imm(3))    // 12
	b.Shl(isa.R(isa.EAX), isa.Imm(2))    // 48
	b.Shr(isa.R(isa.EAX), isa.Imm(1))    // 24
	b.Or(isa.R(isa.EAX), isa.Imm(0x100)) // 0x118
	b.And(isa.R(isa.EAX), isa.Imm(0xFF)) // 0x18
	b.Movb(isa.MemSym("buf"), isa.R(isa.EAX))
	b.Movb(isa.R(isa.EBX), isa.MemSym("buf"))
	b.Xor(isa.R(isa.EAX), isa.R(isa.EAX)) // 0 and taint cleared
	b.Halt()
	prog := b.MustBuild()

	c, _ := New(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	tr := c.Execute()
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
	}
	if c.Reg(isa.EBX) != 0x18 {
		t.Errorf("ebx = %#x, want 0x18", c.Reg(isa.EBX))
	}
	if c.Reg(isa.EAX) != 0 {
		t.Errorf("eax = %#x, want 0", c.Reg(isa.EAX))
	}
}

func TestStepLimit(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("loop")
	b.Jmp("loop")
	prog := b.MustBuild()
	tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitLimit || tr.StepCount != 100 {
		t.Errorf("exit = %v, steps = %d", tr.Exit, tr.StepCount)
	}
}

func TestUnknownAPIFaults(t *testing.T) {
	b := isa.NewBuilder("bad")
	b.Raw(isa.Instr{Op: isa.CALLAPI, API: "NoSuchAPI"})
	prog := b.MustBuild()
	tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitFault || !strings.Contains(tr.Fault, "NoSuchAPI") {
		t.Errorf("exit = %v, fault = %q", tr.Exit, tr.Fault)
	}
}

func TestArgCountMismatchFaults(t *testing.T) {
	b := isa.NewBuilder("bad-args")
	b.Raw(isa.Instr{Op: isa.CALLAPI, API: "OpenMutexA", NArgs: 0})
	prog := b.MustBuild()
	tr, _ := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if tr.Exit != trace.ExitFault || !strings.Contains(tr.Fault, "expects 1 args") {
		t.Errorf("exit = %v, fault = %q", tr.Exit, tr.Fault)
	}
}

func TestBadMemoryFaults(t *testing.T) {
	// The fault lands mid-sequence: the faulting instruction counts as a
	// step, the ones after it never run.
	b := isa.NewBuilder("wild")
	b.Mov(isa.R(isa.EAX), isa.Imm(1))
	b.Mov(isa.R(isa.EAX), isa.MemAbs(0xDEAD0000))
	b.Add(isa.R(isa.EAX), isa.Imm(1))
	prog := b.MustBuild()
	tr, _ := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if tr.Exit != trace.ExitFault || !strings.Contains(tr.Fault, "unmapped") || tr.StepCount != 2 {
		t.Errorf("exit = %v, fault = %q, steps = %d", tr.Exit, tr.Fault, tr.StepCount)
	}
}

func TestWriteToRDataFaults(t *testing.T) {
	b := isa.NewBuilder("romod")
	b.RData("s", "const")
	b.Mov(isa.MemSym("s"), isa.Imm(1))
	prog := b.MustBuild()
	tr, _ := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if tr.Exit != trace.ExitFault || !strings.Contains(tr.Fault, "read-only") {
		t.Errorf("exit = %v, fault = %q", tr.Exit, tr.Fault)
	}
}

func TestFallOffEndHalts(t *testing.T) {
	b := isa.NewBuilder("dribble")
	b.Nop()
	prog := b.MustBuild()
	tr, _ := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if tr.Exit != trace.ExitHalt {
		t.Errorf("exit = %v, want halt", tr.Exit)
	}
}

func TestRetWithEmptyCallStackFaults(t *testing.T) {
	b := isa.NewBuilder("badret")
	b.Push(isa.Imm(0))
	b.Ret()
	prog := b.MustBuild()
	tr, _ := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	if tr.Exit != trace.ExitFault {
		t.Errorf("exit = %v, want fault", tr.Exit)
	}
}

func TestDeterministicRandPerSeed(t *testing.T) {
	b := isa.NewBuilder("rng")
	b.CallAPI("GetTickCount")
	b.Mov(isa.R(isa.EBX), isa.R(isa.EAX))
	b.Halt()
	prog := b.MustBuild()

	run := func(seed uint64) uint32 {
		c, _ := New(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: seed})
		c.Execute()
		return c.Reg(isa.EBX)
	}
	if run(7) != run(7) {
		t.Error("same seed produced different random values")
	}
	if run(7) == run(8) {
		t.Error("different seeds produced identical random values")
	}
}

func TestJumpsSignedComparisons(t *testing.T) {
	b := isa.NewBuilder("jl")
	b.Mov(isa.R(isa.EAX), isa.Imm(3))
	b.Cmp(isa.R(isa.EAX), isa.Imm(5))
	b.Jl("less")
	b.Mov(isa.R(isa.EBX), isa.Imm(0))
	b.Halt()
	b.Label("less")
	b.Mov(isa.R(isa.EBX), isa.Imm(1))
	b.Cmp(isa.R(isa.EAX), isa.Imm(1))
	b.Jge("done")
	b.Mov(isa.R(isa.EBX), isa.Imm(2))
	b.Label("done")
	b.Halt()
	prog := b.MustBuild()
	c, _ := New(prog, winenv.New(winenv.DefaultIdentity()), Options{})
	tr := c.Execute()
	if tr.Exit != trace.ExitHalt || c.Reg(isa.EBX) != 1 {
		t.Errorf("exit=%v ebx=%d", tr.Exit, c.Reg(isa.EBX))
	}
}

// CreateNewDisposition re-exports the CreateFileA disposition for tests
// in this package (winapi.CreateNew).
const CreateNewDisposition = 1

func TestMutationByCallerPC(t *testing.T) {
	// Two CreateMutexA sites; only the second is mutated.
	b := isa.NewBuilder("two-sites")
	b.RData("m1", "alpha")
	b.RData("m2", "beta")
	b.CallAPI("CreateMutexA", isa.Sym("m1"))
	b.CallAPI("CreateMutexA", isa.Sym("m2"))
	b.Halt()
	prog := b.MustBuild()

	// Find the second CALLAPI pc.
	pc2 := -1
	for i, in := range prog.Instrs {
		if in.Op == isa.CALLAPI {
			pc2 = i // last one wins
		}
	}
	env := winenv.New(winenv.DefaultIdentity())
	tr, err := Run(prog, env, Options{
		Mutations: []Mutation{{API: "CreateMutexA", CallerPC: pc2, Mode: ForceFailure}},
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := tr.CallsTo("CreateMutexA")
	if len(calls) != 2 {
		t.Fatalf("calls = %d", len(calls))
	}
	if calls[0].Mutated || !calls[1].Mutated {
		t.Errorf("mutation matched wrong site: %+v", calls)
	}
	if !env.Exists(winenv.KindMutex, "alpha") || env.Exists(winenv.KindMutex, "beta") {
		t.Error("environment state wrong after per-site mutation")
	}
}

func TestTaintThroughStringOps(t *testing.T) {
	// Read a registry value, compare it with lstrcmpA: the comparison's
	// TEST must be tainted.
	b := isa.NewBuilder("strcmp-taint")
	b.RData("key", `HKLM\Software\Mark`)
	b.RData("val", "installed")
	b.RData("expect", "1")
	b.Buf("hkey", 4)
	b.Buf("buf", 16)
	b.CallAPI("RegOpenKeyExA", isa.Sym("key"), isa.Sym("hkey"))
	b.CallAPI("RegQueryValueExA", isa.MemSym("hkey"), isa.Sym("val"), isa.Sym("buf"), isa.Imm(16))
	b.CallAPI("lstrcmpA", isa.Sym("buf"), isa.Sym("expect"))
	b.Test(isa.R(isa.EAX), isa.R(isa.EAX))
	b.Jnz("skip")
	b.Label("skip")
	b.Halt()
	prog := b.MustBuild()

	env := winenv.New(winenv.DefaultIdentity())
	env.Inject(winenv.Resource{Kind: winenv.KindRegistry, Name: `HKLM\Software\Mark`, Owner: "system"})
	env.Inject(winenv.Resource{Kind: winenv.KindRegistry, Name: `HKLM\Software\Mark\installed`, Owner: "system", Data: []byte("1")})
	tr, err := Run(prog, env, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
	}
	if !tr.HasTaintedPredicate() {
		t.Fatal("registry-value comparison not flagged as tainted predicate")
	}
}
