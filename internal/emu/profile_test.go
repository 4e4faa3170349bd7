package emu_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// stripProfile clears the fields only a profiling run records.
func stripProfile(tr *trace.Trace) {
	tr.Steps, tr.Sources, tr.Predicates = nil, nil, nil
	for i := range tr.Calls {
		c := &tr.Calls[i]
		c.TaintSources, c.IdentifierTaint = nil, nil
		for j := range c.Args {
			c.Args[j].Tainted = false
		}
	}
}

// checkProfileTransparent runs prog with and without profiling, each on
// a fresh host from newEnv, and requires the two runs to agree on
// everything but what profiling records, which the plain run must not
// hold. It returns the plain run's trace (nil when both runs fail to
// start).
func checkProfileTransparent(t testing.TB, prog *isa.Program, newEnv func() *winenv.Env, opts emu.Options) *trace.Trace {
	t.Helper()
	opts.Profile = false
	plain, errPlain := emu.Run(prog, newEnv(), opts)
	opts.Profile = true
	prof, errProf := emu.Run(prog, newEnv(), opts)
	if (errPlain == nil) != (errProf == nil) {
		t.Fatalf("%s: plain run error %v, profiling run error %v", prog.Name, errPlain, errProf)
	}
	if errPlain != nil {
		return nil
	}
	before, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	stripProfile(plain)
	if after, _ := json.Marshal(plain); string(after) != string(before) {
		t.Fatalf("%s: a run without profiling recorded taint or steps", prog.Name)
	}
	stripProfile(prof)
	if !reflect.DeepEqual(plain, prof) {
		a, _ := json.Marshal(plain)
		b, _ := json.Marshal(prof)
		t.Fatalf("%s: profiling changed more than taint and steps:\nplain   %s\nprofile %s", prog.Name, a, b)
	}
	return plain
}

// TestProfileChangesOnlyTaintAndSteps holds the emulator to its
// profiling contract over the Table-II corpus, the three hash-resolving
// bands and the network bands under their C2 scenario: switching
// profiling off drops the taint labels and the step log and changes
// nothing else, for a natural run and for a run with a forced API
// result.
func TestProfileChangesOnlyTaintAndSteps(t *testing.T) {
	gen := malware.NewGenerator(1)
	tableII, err := gen.Corpus(150)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := gen.HashResolveCorpus(5)
	if err != nil {
		t.Fatal(err)
	}
	netSamples, scenario, err := gen.NetCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	plainHost := func() *winenv.Env { return winenv.New(winenv.DefaultIdentity()) }
	c2Host := func() *winenv.Env {
		env := winenv.New(winenv.DefaultIdentity())
		env.Net().SetResponder(scenario.NewResponder())
		return env
	}
	modes := []emu.MutationMode{emu.ForceSuccess, emu.ForceFailure, emu.ForceAlreadyExists}
	mutatedRuns := 0
	for _, band := range []struct {
		samples  []*malware.Sample
		newEnv   func() *winenv.Env
		registry *winapi.Registry
	}{
		{append(tableII, hashed...), plainHost, winapi.Standard()},
		{netSamples, c2Host, winapi.StandardC2()},
	} {
		for i, s := range band.samples {
			opts := emu.Options{Seed: 1, MaxSteps: 50_000, Registry: band.registry}
			natural := checkProfileTransparent(t, s.Program, band.newEnv, opts)
			if natural == nil {
				t.Fatalf("%s does not run", s.Name())
			}
			res := natural.ResourceCalls()
			if len(res) == 0 {
				continue
			}
			c := res[0]
			opts.Mutations = []emu.Mutation{{
				API: c.API, CallerPC: c.CallerPC, Identifier: c.Identifier, Mode: modes[i%len(modes)],
			}}
			checkProfileTransparent(t, s.Program, band.newEnv, opts)
			mutatedRuns++
		}
	}
	if mutatedRuns < 100 {
		t.Errorf("only %d samples made a resource call to force", mutatedRuns)
	}
}

// FuzzProfileTransparent holds arbitrary programs to the profiling
// contract of TestProfileChangesOnlyTaintAndSteps.
func FuzzProfileTransparent(f *testing.F) {
	// Seeded like the static surface fuzzer: the hash-resolving
	// programs, a direct-call family sample, and degenerate shapes.
	g := malware.NewGenerator(1)
	if hr, err := g.HashResolveCorpus(1); err == nil {
		for _, s := range hr {
			if raw, err := json.Marshal(s.Program); err == nil {
				f.Add(raw)
			}
		}
	}
	if s, err := g.FamilySample(malware.Zeus); err == nil {
		if raw, err := json.Marshal(s.Program); err == nil {
			f.Add(raw)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Name":"x","Instrs":[{"Op":255}]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		var p isa.Program
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Skip()
		}
		checkProfileTransparent(t, &p, func() *winenv.Env { return winenv.New(winenv.DefaultIdentity()) },
			emu.Options{Seed: 1, MaxSteps: 20_000})
	})
}
