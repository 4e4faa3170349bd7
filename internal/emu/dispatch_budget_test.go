package emu_test

import (
	"testing"

	"autovac/internal/emu"
	"autovac/internal/malware"
	"autovac/internal/winenv"
)

// TestBenignRunPerCallBudget pins what API dispatch allocates per call
// in the clinic's shape: a warm one-shot run of a benign suite program
// on a prepared host that is rewound by snapshot after each run. The
// run allocates per run (CPU, memory image, call log, source table)
// and per logged call (its argument list, strings, taint label), but
// no argument slice, map, recording copy or untainted provenance per
// call and no growth copies: benign-firefox makes 18 calls for 140
// objects (310 before the lean dispatch).
func TestBenignRunPerCallBudget(t *testing.T) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var prog *malware.Sample
	for _, b := range benign {
		if b.Name() == "benign-firefox" {
			prog = b
		}
	}
	if prog == nil {
		t.Fatal("benign-firefox not in the suite")
	}
	env := winenv.New(winenv.DefaultIdentity())
	malware.PrepareBenignEnv(env)
	snap := env.Snapshot()
	defer snap.Close()
	calls := 0
	run := func() {
		tr, err := emu.Run(prog.Program, env, emu.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		calls = len(tr.Calls)
		env.Reset(snap)
	}
	run()
	if calls < 10 {
		t.Fatalf("benign-firefox made %d API calls; the budget needs a call-heavy program", calls)
	}
	const perCall = 9.0
	if n := testing.AllocsPerRun(20, run); n/float64(calls) > perCall {
		t.Errorf("warm one-shot run allocated %.0f objects for %d API calls (%.1f per call, budget %.1f)",
			n, calls, n/float64(calls), perCall)
	}
}
