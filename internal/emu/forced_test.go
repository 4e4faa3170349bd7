package emu

import (
	"testing"

	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// dormantSample gates its payload behind a required-library check: on a
// host without the library the payload never runs (dormant behaviour).
func dormantSample() *isa.Program {
	b := isa.NewBuilder("dormant")
	b.RData("lib", "corpvpn.dll")
	b.RData("cc", "cc.example")
	b.CallAPI("LoadLibraryA", isa.Sym("lib"))
	b.Test(isa.R(isa.EAX), isa.R(isa.EAX))
	b.Jz("bail").Comment("required dependency missing")
	b.CallAPI("gethostbyname", isa.Sym("cc"))
	b.Halt()
	b.Label("bail")
	b.CallAPI("ExitProcess", isa.Imm(2))
	return b.MustBuild()
}

// findConditionalPC returns the PC of the first conditional jump.
func findConditionalPC(p *isa.Program) int {
	for i, in := range p.Instrs {
		if in.Op == isa.JZ || in.Op == isa.JNZ || in.Op == isa.JL || in.Op == isa.JGE {
			return i
		}
	}
	return -1
}

func TestForcedExecutionRevealsDormantPayload(t *testing.T) {
	prog := dormantSample()

	// Natural run on a host without the library: the sample bails and
	// the payload stays dormant.
	natural, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if natural.Exit != trace.ExitProcess || len(natural.CallsTo("gethostbyname")) != 0 {
		t.Fatalf("natural run: exit %v, net calls %d", natural.Exit, len(natural.CallsTo("gethostbyname")))
	}

	// Forced execution inverts the dependency branch: the dormant C&C
	// behaviour becomes observable without installing the library.
	pc := findConditionalPC(prog)
	if pc < 0 {
		t.Fatal("no conditional found")
	}
	forced, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{
		Seed: 1, InvertBranches: []int{pc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Exit != trace.ExitHalt {
		t.Fatalf("forced run exit = %v (fault %q)", forced.Exit, forced.Fault)
	}
	if len(forced.CallsTo("gethostbyname")) == 0 {
		t.Error("dormant payload not revealed under forced execution")
	}
}

func TestForcedExecutionAgreesWithAPIMutation(t *testing.T) {
	// Forcing the branch and forcing the API result are two routes to
	// the same observation (the paper's §VIII: "our enforced execution
	// ... focuses on these environment/system resource sensitive
	// branches").
	prog := dormantSample()
	pc := findConditionalPC(prog)

	viaBranch, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{
		Seed: 1, InvertBranches: []int{pc},
	})
	if err != nil {
		t.Fatal(err)
	}
	viaMutation, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{
		Seed: 1, Mutations: []Mutation{{
			API: "LoadLibraryA", CallerPC: -1, Identifier: "corpvpn.dll", Mode: ForceSuccess,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if viaBranch.Exit != viaMutation.Exit {
		t.Errorf("exits differ: %v vs %v", viaBranch.Exit, viaMutation.Exit)
	}
	if len(viaBranch.CallsTo("gethostbyname")) != len(viaMutation.CallsTo("gethostbyname")) {
		t.Error("payload coverage differs between branch forcing and API mutation")
	}
}

func TestInvertBranchOnlyNamedPC(t *testing.T) {
	// Inverting an unrelated PC leaves the target branch alone.
	prog := dormantSample()
	forced, err := Run(prog, winenv.New(winenv.DefaultIdentity()), Options{
		Seed: 1, InvertBranches: []int{9999},
	})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Exit != trace.ExitProcess {
		t.Errorf("unrelated inversion changed behaviour: %v", forced.Exit)
	}
}
