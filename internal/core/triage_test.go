package core

import (
	"context"
	"strings"
	"testing"

	"autovac/internal/exclusive"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/static"
	"autovac/internal/vaccine"
)

// triageCorpus is the mixed workload the triage tests run on: the
// stock corpus (every behaviour resource-gated, nothing skippable)
// plus the three hash-resolving bands, of which exactly the hashtick
// band is provably resource-free.
func triageCorpus(t testing.TB, seed int64, stock, perBand int) []*malware.Sample {
	t.Helper()
	g := malware.NewGenerator(seed)
	samples, err := g.Corpus(stock)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := g.HashResolveCorpus(perBand)
	if err != nil {
		t.Fatal(err)
	}
	return append(samples, hr...)
}

// TestAPISurfaceSoundOnCorpus pins the Phase-0 soundness relation on
// every sample of the mixed corpus: the set of APIs the emulator
// actually invokes is contained in the statically recovered surface,
// or the surface is ⊤ (in which case Contains admits everything and
// triage never skips). This is the property that makes skipping safe:
// no surface API resource-labelled ⇒ no dynamic resource call ⇒ no
// candidate ⇒ no vaccine.
func TestAPISurfaceSoundOnCorpus(t *testing.T) {
	samples := triageCorpus(t, 3, crossCheckCorpus, 4)
	p := New(Config{Seed: 3})

	bounded, resolved := 0, 0
	for _, s := range samples {
		res, err := p.Analyze(s)
		if err != nil {
			t.Fatalf("%s: analyze: %v", s.Name(), err)
		}
		surf, err := static.RecoverAPISurface(s.Program)
		if err != nil {
			t.Fatalf("%s: RecoverAPISurface: %v", s.Name(), err)
		}
		if !surf.Top {
			bounded++
		}
		for _, c := range res.Profile.Normal.Calls {
			if !surf.Contains(c.API) {
				t.Errorf("%s: emulator called %s at pc %d but the recovered surface %v omits it",
					s.Name(), c.API, c.CallerPC, surf.APIs)
			}
		}
		if strings.HasPrefix(s.Name(), "hash") {
			resolved++
			if surf.Top {
				t.Errorf("%s: hash-resolving sample degraded to ⊤ — the export-walk interpretation regressed", s.Name())
			}
		}
	}
	if bounded == 0 {
		t.Error("no sample got a bounded surface — the pass always answers ⊤")
	}
	if resolved == 0 {
		t.Error("corpus contained no hash-resolving samples — the indirect-call path went unexercised")
	}
}

// candidateFreeSample builds a "fire-and-forget dropper": it marks its
// presence in a resource namespace but never compares the result, so
// Phase-I finds no candidate. Its surface names CreateMutexA, so
// triage must still emulate it.
func candidateFreeSample(t *testing.T) *malware.Sample {
	t.Helper()
	b := isa.NewBuilder("dropper-000")
	mu := b.RData("mu", `Global\DROP-0`)
	// Untainted busywork first, so its compare sees clean data only.
	b.Mov(isa.R(isa.ECX), isa.Imm(3)).
		Label("spin").Dec(isa.R(isa.ECX)).
		Jnz("spin")
	// Resource marker whose result is discarded, never compared.
	b.CallAPI("CreateMutexA", isa.Sym(mu))
	b.Mov(isa.R(isa.EAX), isa.Imm(0)).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &malware.Sample{
		Spec:    &malware.Spec{Name: p.Name, Category: malware.Worm},
		Program: p,
	}
}

// TestTriageSkipsResourceFreeSamples checks the Phase-0 skip engages
// on exactly the provable population: every hashtick sample (its
// surface holds only GetTickCount/ExitProcess/CloseHandle) is skipped,
// every resource-touching sample — including the hash-resolving mutex
// and file bands, whose resource APIs appear in no instruction, and a
// candidate-free dropper — is still emulated. The deprecated
// StaticPrefilter option must not change that: triage is the only
// static skip.
func TestTriageSkipsResourceFreeSamples(t *testing.T) {
	const perBand = 6
	samples := append(triageCorpus(t, 5, 16, perBand), candidateFreeSample(t))
	p := New(Config{Seed: 5})
	for _, opts := range []CorpusOptions{
		{StaticTriage: true},
		{StaticTriage: true, StaticPrefilter: true},
	} {
		results, stats, err := p.AnalyzeCorpus(context.Background(), samples, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TriageSkipped != perBand {
			t.Errorf("%+v: TriageSkipped = %d, want %d (the hashtick band)", opts, stats.TriageSkipped, perBand)
		}
		for i, res := range results {
			if res == nil {
				t.Errorf("%+v: sample %d: missing result", opts, i)
				continue
			}
			skipped := res.Profile.Normal == nil
			isTick := strings.HasPrefix(samples[i].Name(), "hashtick")
			if skipped != isTick {
				t.Errorf("%+v: %s: skipped=%v, want %v", opts, samples[i].Name(), skipped, isTick)
			}
		}
	}
}

// TestTriagePreservesPackExactly runs the same mixed corpus with
// triage off and on: vaccine output must be byte-identical, and the
// skip count must survive into the portable AnalysisStats.
func TestTriagePreservesPackExactly(t *testing.T) {
	const perBand = 4
	samples := triageCorpus(t, 5, 32, perBand)
	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := exclusive.BuildIndex(benign, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 5, Index: ix})

	packFor := func(triage bool) (string, *RunStats) {
		results, stats, err := p.AnalyzeCorpus(context.Background(), samples,
			CorpusOptions{StaticTriage: triage})
		if err != nil {
			t.Fatalf("AnalyzeCorpus(triage=%v): %v", triage, err)
		}
		pack := vaccine.Pack{Generator: "test"}
		for _, res := range results {
			if res != nil {
				pack.Vaccines = append(pack.Vaccines, res.Vaccines...)
			}
		}
		return pack.Digest(), stats
	}

	offDigest, offStats := packFor(false)
	onDigest, onStats := packFor(true)
	if offDigest != onDigest {
		t.Errorf("packs diverged: dynamic %s vs triaged %s", offDigest, onDigest)
	}
	if offStats.TriageSkipped != 0 {
		t.Errorf("dynamic run reported %d triage-skipped samples", offStats.TriageSkipped)
	}
	if onStats.TriageSkipped != perBand {
		t.Errorf("triage skipped %d samples, want the %d hashtick samples", onStats.TriageSkipped, perBand)
	}
	if st := onStats.AnalysisStats(); st.TriageSkipped != onStats.TriageSkipped {
		t.Errorf("AnalysisStats dropped the triage count: %d vs %d",
			st.TriageSkipped, onStats.TriageSkipped)
	}
}

// benchmarkTriageCorpus measures the mixed workload with and without
// Phase-0. The hashtick band's stalling spins make its emulation the
// dominant cost, so triage wins exactly when the surface pass is
// cheaper than the emulation it avoids.
func benchmarkTriageCorpus(b *testing.B, triage bool) {
	samples := triageCorpus(b, 11, 16, 16)
	p := New(Config{Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := p.AnalyzeCorpus(context.Background(), samples,
			CorpusOptions{StaticTriage: triage})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase0TriageBaseline is the no-triage baseline: every
// sample emulated, including the provably pointless ones.
func BenchmarkPhase0TriageBaseline(b *testing.B) { benchmarkTriageCorpus(b, false) }

// BenchmarkPhase0Triage skips emulation of samples whose recovered API
// surface holds no resource API.
func BenchmarkPhase0Triage(b *testing.B) { benchmarkTriageCorpus(b, true) }
