package emu

import (
	"testing"
	"testing/quick"

	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// TestTaintSoundnessProperty checks the soundness invariant of the
// forward taint analysis on randomly generated straight-line programs:
// a value computed (directly or transitively) from a tainted API result
// must carry taint when it reaches a predicate.
//
// The generator builds programs of the form
//
//	OpenMutexA(name)        ; EAX tainted (source)
//	<random data-flow chain over registers and memory>
//	TEST/CMP <sink>, <sink> ; must register as a tainted predicate
//
// where every chain step provably propagates the value (mov/add/or
// through registers or memory cells).
func TestTaintSoundnessProperty(t *testing.T) {
	type chainStep struct {
		Kind uint8 // 0 mov reg, 1 via memory, 2 add, 3 or, 4 push/pop
		Reg  uint8
	}
	f := func(steps []chainStep) bool {
		if len(steps) > 24 {
			steps = steps[:24]
		}
		b := isa.NewBuilder("taint-prop")
		b.RData("m", "marker")
		b.Buf("cell", 8)
		b.CallAPI("OpenMutexA", isa.Sym("m")) // EAX tainted
		cur := isa.EAX
		for _, s := range steps {
			// Pick a destination register other than ESP/EBP.
			dst := isa.Reg(s.Reg % 6) // EAX..EDI
			switch s.Kind % 5 {
			case 0:
				b.Mov(isa.R(dst), isa.R(cur))
			case 1:
				b.Mov(isa.MemSym("cell"), isa.R(cur))
				b.Mov(isa.R(dst), isa.MemSym("cell"))
			case 2:
				b.Mov(isa.R(dst), isa.R(cur))
				b.Add(isa.R(dst), isa.Imm(13))
			case 3:
				b.Mov(isa.R(dst), isa.R(cur))
				b.Or(isa.R(dst), isa.Imm(0x100))
			case 4:
				b.Push(isa.R(cur))
				b.Pop(isa.R(dst))
			}
			cur = dst
		}
		b.Test(isa.R(cur), isa.R(cur))
		b.Halt()
		prog, err := b.Build()
		if err != nil {
			return false
		}
		tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 5, Profile: true})
		if err != nil || tr.Exit != trace.ExitHalt {
			return false
		}
		return tr.HasTaintedPredicate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestTaintNoFalsePositivesProperty: programs whose predicates only
// consume constants never report tainted predicates, regardless of the
// (unused) tainted data flowing around them.
func TestTaintNoFalsePositivesProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) > 16 {
			vals = vals[:16]
		}
		b := isa.NewBuilder("clean-prop")
		b.RData("m", "marker")
		b.CallAPI("OpenMutexA", isa.Sym("m")) // tainted, parked in EAX
		b.Mov(isa.R(isa.EDI), isa.R(isa.EAX)).Comment("tainted but unused by predicates")
		for _, v := range vals {
			b.Mov(isa.R(isa.EBX), isa.Imm(uint32(v)))
			b.Cmp(isa.R(isa.EBX), isa.Imm(uint32(v)%7))
		}
		b.Halt()
		prog, err := b.Build()
		if err != nil {
			return false
		}
		tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 5})
		if err != nil {
			return false
		}
		return !tr.HasTaintedPredicate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestXorClearKillsTaint(t *testing.T) {
	b := isa.NewBuilder("xorclear")
	b.RData("m", "x")
	b.CallAPI("OpenMutexA", isa.Sym("m"))
	b.Xor(isa.R(isa.EAX), isa.R(isa.EAX)).Comment("canonical clear idiom")
	b.Test(isa.R(isa.EAX), isa.R(isa.EAX))
	b.Halt()
	tr, err := Run(b.MustBuild(), winenv.New(winenv.DefaultIdentity()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.HasTaintedPredicate() {
		t.Error("xor-cleared register still tainted")
	}
}

func TestTaintThroughByteMoves(t *testing.T) {
	// Byte-granularity propagation: a single tainted byte copied out of
	// a string buffer keeps its taint.
	b := isa.NewBuilder("bytetaint")
	b.RData("key", `HKLM\Software\Mk`)
	b.Buf("hkey", 4)
	b.Buf("buf", 8)
	b.CallAPI("RegOpenKeyExA", isa.Sym("key"), isa.Sym("hkey"))
	b.CallAPI("RegQueryValueExA", isa.MemSym("hkey"), isa.Sym("key"), isa.Sym("buf"), isa.Imm(4))
	b.Movb(isa.R(isa.ECX), isa.MemSym("buf"))
	b.Cmp(isa.R(isa.ECX), isa.Imm('y'))
	b.Halt()
	env := winenv.New(winenv.DefaultIdentity())
	env.Inject(winenv.Resource{Kind: winenv.KindRegistry, Name: `HKLM\Software\Mk`, Owner: "system"})
	env.Inject(winenv.Resource{Kind: winenv.KindRegistry, Name: `HKLM\Software\Mk\HKLM\Software\Mk`, Owner: "system", Data: []byte("yes")})
	tr, err := Run(b.MustBuild(), env, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit == trace.ExitFault {
		t.Fatalf("fault: %s", tr.Fault)
	}
	if !tr.HasTaintedPredicate() {
		t.Error("byte loaded from API-written buffer lost taint")
	}
}

func TestStackOverflowFaults(t *testing.T) {
	// Pushing forever walks off the mapped stack and must fault, not
	// hang or corrupt.
	b := isa.NewBuilder("stackeater")
	b.Label("loop")
	b.Push(isa.Imm(0xAA))
	b.Jmp("loop")
	tr, err := Run(b.MustBuild(), winenv.New(winenv.DefaultIdentity()), Options{MaxSteps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitFault {
		t.Fatalf("exit = %v, want fault", tr.Exit)
	}
}

func TestLeaTaintFromBaseRegister(t *testing.T) {
	// An address computed from a tainted base register carries taint.
	b := isa.NewBuilder("leataint")
	b.RData("m", "x")
	b.Buf("buf", 64)
	b.CallAPI("OpenMutexA", isa.Sym("m"))
	b.And(isa.R(isa.EAX), isa.Imm(0x7)).Comment("tainted small index")
	b.Lea(isa.EBX, isa.MemSym("buf"))
	b.Add(isa.R(isa.EBX), isa.R(isa.EAX)).Comment("tainted address")
	b.Cmp(isa.R(isa.EBX), isa.Imm(0))
	b.Halt()
	tr, err := Run(b.MustBuild(), winenv.New(winenv.DefaultIdentity()), Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.HasTaintedPredicate() {
		t.Error("tainted address computation lost taint")
	}
}

func TestMutationModeStrings(t *testing.T) {
	if ForceFailure.String() != "force-failure" ||
		ForceSuccess.String() != "force-success" ||
		ForceAlreadyExists.String() != "force-already-exists" {
		t.Error("MutationMode strings wrong")
	}
}

func TestSymbolAddrAndRegAccessors(t *testing.T) {
	b := isa.NewBuilder("acc")
	b.RData("s", "hello")
	b.Mov(isa.R(isa.EBX), isa.Sym("s"))
	b.Halt()
	c, err := New(b.MustBuild(), winenv.New(winenv.DefaultIdentity()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Execute()
	addr, ok := c.SymbolAddr("s")
	if !ok || addr == 0 {
		t.Fatalf("SymbolAddr = %#x %v", addr, ok)
	}
	if c.Reg(isa.EBX) != addr {
		t.Errorf("ebx = %#x, want %#x", c.Reg(isa.EBX), addr)
	}
	if _, ok := c.SymbolAddr("ghost"); ok {
		t.Error("SymbolAddr(ghost) ok")
	}
}

func TestTaintedArgFlagInLog(t *testing.T) {
	// An API argument derived from a prior API result is logged as
	// tainted.
	b := isa.NewBuilder("argtaint")
	b.RData("m", "x")
	b.CallAPI("CreateMutexA", isa.Sym("m"))
	b.CallAPI("CloseHandle", isa.R(isa.EAX))
	b.Halt()
	tr, err := Run(b.MustBuild(), winenv.New(winenv.DefaultIdentity()), Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	ch := tr.CallsTo("CloseHandle")
	if len(ch) != 1 || len(ch[0].Args) != 1 {
		t.Fatalf("CloseHandle log = %+v", ch)
	}
	if !ch[0].Args[0].Tainted {
		t.Error("handle argument not marked tainted")
	}
}
