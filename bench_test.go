// Benchmark harness: one benchmark per evaluation table and figure of
// the paper (§VI), plus the micro-benchmarks of experiment's bench
// table: the §VI-F performance measurements (vaccine generation,
// backward slicing, impact analysis, deployment, daemon hook overhead),
// the emulator data path and the delta codec. Run with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks use a reduced corpus per iteration (the
// Table II category mix is preserved); `go run ./cmd/benchreport -all`
// regenerates the same outputs at the paper's full 1,716-sample scale,
// and `go run ./cmd/benchreport -bench` times the bench table's rows
// with repetitions and spread. The fleet distribution layer has its own
// benchmarks following the same conventions:
// `go test -bench=. -benchmem ./internal/fleet`
// (BenchmarkRegistryDeltaSync, BenchmarkCheckin, BenchmarkRegistryPublish).
package autovac_test

import (
	"strings"
	"testing"

	"autovac/internal/alignment"
	"autovac/internal/emu"
	"autovac/internal/exclusive"
	"autovac/internal/experiment"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/winenv"
)

const benchSeed = 42

// benchCorpusSize keeps per-iteration experiment runs tractable while
// preserving the corpus mix.
const benchCorpusSize = 60

// --- experiment's bench table (one body per row, shared with benchreport) ---

func BenchmarkEmulator(b *testing.B)                 { bench(b, "Emulator") }
func BenchmarkEmulatorWithSteps(b *testing.B)        { bench(b, "EmulatorWithSteps") }
func BenchmarkEmulatorPooled(b *testing.B)           { bench(b, "EmulatorPooled") }
func BenchmarkEmulatorStalling(b *testing.B)         { bench(b, "EmulatorStalling") }
func BenchmarkSliceReplay(b *testing.B)              { bench(b, "SliceReplay") }
func BenchmarkPhase1CandidateSelection(b *testing.B) { bench(b, "Phase1CandidateSelection") }
func BenchmarkClinicFalsePositiveTest(b *testing.B)  { bench(b, "ClinicFalsePositiveTest") }
func BenchmarkVaccineGeneration(b *testing.B)        { bench(b, "VaccineGeneration") }
func BenchmarkBackwardSlicing(b *testing.B)          { bench(b, "BackwardSlicing") }
func BenchmarkImpactAnalysis(b *testing.B)           { bench(b, "ImpactAnalysis") }
func BenchmarkDirectInjection(b *testing.B)          { bench(b, "DirectInjection") }
func BenchmarkDaemonHookOverhead(b *testing.B)       { bench(b, "DaemonHookOverhead") }
func BenchmarkDeltaCodec(b *testing.B)               { bench(b, "DeltaCodec") }

// bench runs the bench-table row called name, or each row under name
// as a sub-benchmark (DaemonHookOverhead/none, ...).
func bench(b *testing.B, name string) {
	found := false
	for _, row := range experiment.BenchRows() {
		if row.Name == name {
			benchRow(b, row)
			return
		}
		if sub, ok := strings.CutPrefix(row.Name, name+"/"); ok {
			found = true
			b.Run(sub, func(b *testing.B) { benchRow(b, row) })
		}
	}
	if !found {
		b.Fatalf("no bench row %q", name)
	}
}

// benchRow sets row up outside the timer and times b.N operations.
func benchRow(b *testing.B, row experiment.BenchRow) {
	fx, err := row.Setup()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps, err := fx.Run(b.N)
	if err != nil {
		b.Fatal(err)
	}
	if steps > 0 {
		b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
	}
	if fx.BodyBytes > 0 {
		b.ReportMetric(float64(fx.BodyBytes), "body-bytes")
	}
}

// --- Table and figure regeneration benches ---

func BenchmarkTable2Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiment.NewSetup(benchSeed, benchCorpusSize)
		if err != nil {
			b.Fatal(err)
		}
		rows := s.TableII()
		if len(rows) != 6 {
			b.Fatal("bad table II")
		}
	}
}

// phase12 runs Phase-I and Phase-II over the bench corpus.
func phase12(b *testing.B) (*experiment.Setup, *experiment.Phase1Stats, *experiment.GenStats) {
	b.Helper()
	s, err := experiment.NewSetup(benchSeed, benchCorpusSize)
	if err != nil {
		b.Fatal(err)
	}
	stats, profiles, err := s.RunPhase1()
	if err != nil {
		b.Fatal(err)
	}
	gen, err := s.RunPhase2(profiles)
	if err != nil {
		b.Fatal(err)
	}
	return s, stats, gen
}

func BenchmarkFigure3ResourceBehaviour(b *testing.B) {
	s, err := experiment.NewSetup(benchSeed, benchCorpusSize)
	if err != nil {
		b.Fatal(err)
	}
	stats, _, err := s.RunPhase1()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiment.Figure3(stats)
		if len(rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable4VaccineGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, gen := phase12(b)
		if len(experiment.TableIV(gen)) == 0 {
			b.Fatal("empty table IV")
		}
	}
}

func BenchmarkTable3RepresentativeVaccines(b *testing.B) {
	s, _, gen := phase12(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiment.TableIII(gen, s.Samples, 10)
		if len(rows) == 0 {
			b.Fatal("empty table III")
		}
	}
}

func BenchmarkTable5FamilyStatistics(b *testing.B) {
	_, _, gen := phase12(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiment.TableV(gen)
		if len(rows) == 0 {
			b.Fatal("empty table V")
		}
	}
}

func BenchmarkTable6ZeusVaccine(b *testing.B) {
	_, _, gen := phase12(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := experiment.TableVI(gen); !ok {
			b.Fatal("no Zeus vaccine")
		}
	}
}

func BenchmarkFigure4BDR(b *testing.B) {
	s, _, gen := phase12(b)
	byName := make(map[string]*malware.Sample, len(s.Samples))
	for _, sm := range s.Samples {
		byName[sm.Name()] = sm
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := s.Figure4(gen, byName, 2)
		if err != nil {
			b.Fatal(err)
		}
		if len(experiment.SummarizeBDR(points)) == 0 {
			b.Fatal("no BDR data")
		}
	}
}

func BenchmarkTable7VariantEffectiveness(b *testing.B) {
	s, err := experiment.NewSetup(benchSeed, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.TableVII(5, 0.45)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad table VII")
		}
	}
}

// BenchmarkTraceAlignment measures Algorithm 1 on realistic call traces.
func BenchmarkTraceAlignment(b *testing.B) {
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Conficker)
	if err != nil {
		b.Fatal(err)
	}
	normal, _ := emu.Run(sample.Program, winenv.New(winenv.DefaultIdentity()), emu.Options{Seed: benchSeed})
	mutated, _ := emu.Run(sample.Program, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed, Mutations: []emu.Mutation{{
			API: "OpenMutexA", CallerPC: -1, Mode: emu.ForceSuccess,
		}}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := impact.Classify(mutated, normal)
		if !r.Immunizing() {
			b.Fatal("not immunizing")
		}
	}
}

// BenchmarkCorpusGeneration measures synthesizing the full paper-scale
// corpus.
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corpus, err := malware.NewGenerator(benchSeed).Corpus(1716)
		if err != nil {
			b.Fatal(err)
		}
		if len(corpus) != 1716 {
			b.Fatal("bad corpus size")
		}
	}
}

// BenchmarkExclusivenessQuery measures one identifier lookup against
// the benign index (the paper's per-identifier Google query).
func BenchmarkExclusivenessQuery(b *testing.B) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := exclusive.BuildIndex(benign, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ix.Exclusive(winenv.KindMutex, "_AVIRA_2109") {
			b.Fatal("wrong answer")
		}
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAlignment compares the LCS alignment against the paper's
// literal greedy-anchor Algorithm 1 on realistic pipeline traces.
func BenchmarkAlignment(b *testing.B) {
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		b.Fatal(err)
	}
	normal, _ := emu.Run(sample.Program, winenv.New(winenv.DefaultIdentity()), emu.Options{Seed: benchSeed})
	mutated, _ := emu.Run(sample.Program, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed, Mutations: []emu.Mutation{{
			API: "OpenMutexA", CallerPC: -1, Identifier: "_AVIRA_2109", Mode: emu.ForceSuccess,
		}}})
	b.Run("lcs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := alignment.AlignTraces(mutated, normal)
			if d.Aligned == 0 {
				b.Fatal("nothing aligned")
			}
		}
	})
	b.Run("greedy-algorithm1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := alignment.AlignGreedy(mutated.Calls, normal.Calls)
			if d.Aligned == 0 {
				b.Fatal("nothing aligned")
			}
		}
	})
}

// BenchmarkAblationStudy runs the full design-choice ablation over a
// reduced corpus (flip detection, alignment algorithm).
func BenchmarkAblationStudy(b *testing.B) {
	s, err := experiment.NewSetup(benchSeed, 30)
	if err != nil {
		b.Fatal(err)
	}
	_, profiles, err := s.RunPhase1()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Ablation(profiles)
		if err != nil {
			b.Fatal(err)
		}
		if rep.CandidatesTested == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkEvasionExperiments runs the §VII limitation reproductions.
func BenchmarkEvasionExperiments(b *testing.B) {
	s, err := experiment.NewSetup(benchSeed, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ControlDepEvasion(); err != nil {
			b.Fatal(err)
		}
	}
}
