package determinism

import (
	"strings"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

func TestSubtractResiduals(t *testing.T) {
	cases := []struct {
		name string
		want []trace.Loc
		kill trace.Loc
		from trace.Loc
	}{
		{"full kill", nil, trace.MemLoc(100, 8), trace.MemLoc(100, 8)},
		{"left residue", []trace.Loc{trace.MemLoc(100, 2)}, trace.MemLoc(102, 6), trace.MemLoc(100, 8)},
		{"right residue", []trace.Loc{trace.MemLoc(106, 2)}, trace.MemLoc(100, 6), trace.MemLoc(100, 8)},
		{"both residues", []trace.Loc{trace.MemLoc(100, 2), trace.MemLoc(106, 2)}, trace.MemLoc(102, 4), trace.MemLoc(100, 8)},
		{"no overlap", []trace.Loc{trace.MemLoc(100, 4)}, trace.MemLoc(200, 4), trace.MemLoc(100, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := subtract([]trace.Loc{tc.from}, tc.kill)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("got[%d] = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
	// Register kill removes the whole entry.
	got := subtract([]trace.Loc{trace.RegLoc(isa.EBX)}, trace.RegLoc(isa.EBX))
	if len(got) != 0 {
		t.Errorf("register kill left %v", got)
	}
}

func TestWildcardPatternMultipleRuns(t *testing.T) {
	// static-random-static-random → literal '*' literal '*'.
	ident := "abXYcdZW"
	kinds := []byteKind{
		byteStatic, byteStatic, byteRandom, byteRandom,
		byteStatic, byteStatic, byteRandom, byteRandom,
	}
	if got := wildcardPattern(ident, kinds); got != "ab*cd*" {
		t.Errorf("pattern = %q, want ab*cd*", got)
	}
	// All random collapses to a single star.
	if got := wildcardPattern("xyz", []byteKind{byteRandom, byteRandom, byteRandom}); got != "*" {
		t.Errorf("pattern = %q, want *", got)
	}
}

// TestSliceThroughLoopBuiltIdentifier slices an identifier assembled in
// a loop (byte-wise copy of the computer name), exercising repeated
// dynamic instances of the same static instruction.
func TestSliceThroughLoopBuiltIdentifier(t *testing.T) {
	b := isa.NewBuilder("loop-ident")
	b.Buf("cname", 32)
	b.Buf("oname", 40)
	b.CallAPI("GetComputerNameA", isa.Sym("cname"), isa.Imm(32))
	b.Lea(isa.ESI, isa.MemSym("cname"))
	b.Lea(isa.EDI, isa.MemSym("oname"))
	b.Label("copy")
	b.Movb(isa.R(isa.EAX), isa.Mem(isa.ESI, 0))
	b.Movb(isa.Mem(isa.EDI, 0), isa.R(isa.EAX)).Comment("data-flow copy")
	b.Inc(isa.R(isa.ESI))
	b.Inc(isa.R(isa.EDI))
	b.Test(isa.R(isa.EAX), isa.R(isa.EAX))
	b.Jnz("copy")
	b.CallAPI("CreateMutexA", isa.Sym("oname"))
	b.Halt()
	prog := b.MustBuild()

	env := winenv.New(winenv.DefaultIdentity())
	tr, err := emu.Run(prog, env, emu.Options{Seed: 3, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit == trace.ExitFault {
		t.Fatalf("fault: %s", tr.Fault)
	}
	call := tr.CallsTo("CreateMutexA")[0]
	if call.Identifier != "WIN-AUTOVAC01" {
		t.Fatalf("identifier = %q", call.Identifier)
	}
	// Data-flow copy preserves provenance: algorithm-deterministic.
	res := Classify(call, tr.Sources)
	if res.Class != AlgorithmDeterministic {
		t.Fatalf("class = %v", res.Class)
	}
	sl, err := Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}
	// Replay on a renamed host computes the new value.
	other := winenv.DefaultIdentity()
	other.ComputerName = "LAB-PC-5"
	got, err := sl.Replay(winenv.New(other), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != "LAB-PC-5" {
		t.Errorf("replay = %q, want LAB-PC-5", got)
	}
}

// TestSliceReplayPartialStaticFamilies confirms the partial-mutex family
// template yields a classification whose pattern survives fresh ticks.
func TestPartialPatternStableAcrossRuns(t *testing.T) {
	spec := &malware.Spec{Name: "pp", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehPartialMutex, ID: "FAMX"}}}
	prog := malware.MustEmit(spec)
	patterns := make(map[string]bool)
	for seed := uint64(1); seed <= 5; seed++ {
		tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
			emu.Options{Seed: seed, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		call := tr.CallsTo("CreateMutexA")[0]
		res := Classify(call, tr.Sources)
		if res.Class != PartialStatic {
			t.Fatalf("seed %d: class = %v", seed, res.Class)
		}
		patterns[res.Pattern] = true
		if !MatchPattern(res.Pattern, call.Identifier) {
			t.Errorf("seed %d: %q !~ %q", seed, call.Identifier, res.Pattern)
		}
	}
	// The derived pattern is the same whatever the random suffix was.
	if len(patterns) != 1 {
		t.Errorf("patterns unstable across runs: %v", patterns)
	}
	for p := range patterns {
		if !strings.HasPrefix(p, "FAMX-") {
			t.Errorf("pattern = %q", p)
		}
	}
}

func TestReplayFaultSurfaces(t *testing.T) {
	// A slice whose program faults reports the error.
	b := isa.NewBuilder("bad-slice")
	b.Buf("buf", 8)
	b.Raw(isa.Instr{Op: isa.MOV, Dst: isa.R(isa.EAX), Src: isa.MemAbs(0xDEAD0000)})
	b.Halt()
	sl := &Slice{Program: b.MustBuild(), ResultAddr: emu.DataBase, API: "X"}
	if _, err := sl.Replay(winenv.New(winenv.DefaultIdentity()), 1); err == nil {
		t.Error("faulting replay succeeded")
	}
}

func TestReplayEmptyIdentifierErrors(t *testing.T) {
	b := isa.NewBuilder("empty-slice")
	b.Buf("buf", 8)
	b.Halt()
	prog := b.MustBuild()
	c, err := emu.New(prog, winenv.New(winenv.DefaultIdentity()), emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := c.SymbolAddr("buf")
	sl := &Slice{Program: prog, ResultAddr: addr, API: "X"}
	if _, err := sl.Replay(winenv.New(winenv.DefaultIdentity()), 1); err == nil {
		t.Error("empty identifier accepted")
	}
}
