// Benchmark harness: one benchmark per evaluation table and figure of
// the paper (§VI), plus the §VI-F performance measurements (vaccine
// generation overhead, backward slicing, impact analysis, deployment,
// and daemon hook overhead). Run with:
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks use a reduced corpus per iteration (the
// Table II category mix is preserved); `go run ./cmd/benchreport -all`
// regenerates the same outputs at the paper's full 1,716-sample scale.
// The fleet distribution layer has its own benchmarks following the
// same conventions: `go test -bench=. -benchmem ./internal/fleet`
// (BenchmarkRegistryDeltaSync, BenchmarkCheckin, BenchmarkRegistryPublish).
package autovac_test

import (
	"fmt"
	"testing"

	"autovac/internal/alignment"
	"autovac/internal/core"
	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/exclusive"
	"autovac/internal/experiment"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

const benchSeed = 42

// benchCorpusSize keeps per-iteration experiment runs tractable while
// preserving the corpus mix.
const benchCorpusSize = 60

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

func BenchmarkPhase1CandidateSelection(b *testing.B) {
	s, err := experiment.NewSetup(benchSeed, benchCorpusSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, _, err := s.RunPhase1()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Occurrences == 0 {
			b.Fatal("no occurrences")
		}
	}
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

func BenchmarkClinicFalsePositiveTest(b *testing.B) {
	s, _, gen := phase12(b)
	vs := gen.Vaccines
	if len(vs) > 5 {
		vs = vs[:5]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.FalsePositiveTest(vs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ProgramsTested == 0 {
			b.Fatal("no programs tested")
		}
	}
}

// --- §VI-F.1: vaccine generation overhead ---

// benchPipeline builds a pipeline with the exclusiveness index.
func benchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	benign, err := malware.BenignCorpus()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := exclusive.BuildIndex(benign, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return core.New(core.Config{Seed: benchSeed, Index: ix})
}

// BenchmarkVaccineGeneration measures end-to-end analysis of one sample
// (the paper: 789 s per sample on 2013 hardware, against real binaries).
func BenchmarkVaccineGeneration(b *testing.B) {
	p := benchPipeline(b)
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Analyze(sample)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Vaccines) == 0 {
			b.Fatal("no vaccines")
		}
	}
}

// BenchmarkBackwardSlicing measures slice extraction for an
// algorithm-deterministic identifier (the paper: 214 s average).
func BenchmarkBackwardSlicing(b *testing.B) {
	spec := &malware.Spec{Name: "bench-algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed, RecordSteps: true})
	if err != nil {
		b.Fatal(err)
	}
	seq := tr.CallsTo("CreateMutexA")[0].Seq
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := determinism.Extract(prog, tr, seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImpactAnalysis measures one mutation experiment: a mutated
// re-execution plus trace differential classification (the paper: 2-3
// minutes per case).
func BenchmarkImpactAnalysis(b *testing.B) {
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		b.Fatal(err)
	}
	normal, err := emu.Run(sample.Program, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutated, err := emu.Run(sample.Program, winenv.New(winenv.DefaultIdentity()),
			emu.Options{Seed: benchSeed, Mutations: []emu.Mutation{{
				API: "OpenMutexA", CallerPC: -1, Identifier: "_AVIRA_2109",
				Mode: emu.ForceSuccess,
			}}})
		if err != nil {
			b.Fatal(err)
		}
		if r := impact.Classify(mutated, normal); !r.Immunizing() {
			b.Fatal("not immunizing")
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

// --- §VI-F.2: deployment overhead ---

// staticVaccines builds n distinct static mutex vaccines.
func staticVaccines(n int) []vaccine.Vaccine {
	out := make([]vaccine.Vaccine, n)
	for i := range out {
		out[i] = vaccine.Vaccine{
			ID: fmt.Sprintf("bench/mutex/%d", i), Sample: "bench",
			Resource: winenv.KindMutex, Identifier: fmt.Sprintf("BENCH-MUTEX-%04d", i),
			Class: determinism.Static, Op: "open", API: "OpenMutexA",
			Effect: impact.Full, Polarity: vaccine.SimulatePresence,
			Delivery: vaccine.DirectInjection,
		}
	}
	return out
}

// BenchmarkDirectInjection measures installing a batch of static
// vaccines (the paper: 34 s for 373 static vaccines, i.e. ~91 ms each).
func BenchmarkDirectInjection(b *testing.B) {
	vs := staticVaccines(373)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := winenv.New(winenv.DefaultIdentity())
		d := core.New(core.Config{Seed: benchSeed}).NewDaemonFor(env)
		for j := range vs {
			if err := d.Install(vs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSliceReplay measures regenerating one algorithm-deterministic
// identifier on an end host (the paper: 25.7 s per vaccine).
func BenchmarkSliceReplay(b *testing.B) {
	spec := &malware.Spec{Name: "bench-replay", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed, RecordSteps: true})
	if err != nil {
		b.Fatal(err)
	}
	sl, err := determinism.Extract(prog, tr, tr.CallsTo("CreateMutexA")[0].Seq)
	if err != nil {
		b.Fatal(err)
	}
	env := winenv.New(winenv.DefaultIdentity())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replay rewinds the environment itself; no per-iteration clone.
		if _, err := sl.Replay(env, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonHookOverhead measures the per-operation cost of the
// daemon's interception hook as the number of partial-static vaccines
// grows — the paper's <4.5% hook overhead claim, and its extrapolation
// that 10x more vaccines stay under 12%. The .../none case is the
// baseline without a daemon.
func BenchmarkDaemonHookOverhead(b *testing.B) {
	patterns := func(n int) []vaccine.Vaccine {
		out := make([]vaccine.Vaccine, n)
		for i := range out {
			out[i] = vaccine.Vaccine{
				ID: fmt.Sprintf("bench/pat/%d", i), Sample: "bench",
				Resource: winenv.KindMutex, Pattern: fmt.Sprintf("WORMFAM%04d-*", i),
				Class: determinism.PartialStatic, Op: "create", API: "CreateMutexA",
				Effect: impact.Full, Polarity: vaccine.SimulatePresence,
				Delivery: vaccine.VaccineDaemon,
			}
		}
		return out
	}
	run := func(b *testing.B, n int) {
		env := winenv.New(winenv.DefaultIdentity())
		if n > 0 {
			d := core.New(core.Config{Seed: benchSeed}).NewDaemonFor(env)
			for _, v := range patterns(n) {
				if err := d.Install(v); err != nil {
					b.Fatal(err)
				}
			}
		}
		req := winenv.Request{
			Kind: winenv.KindMutex, Op: winenv.OpCreate,
			Name: "benign-app-instance-mutex", Principal: "app",
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := env.Do(req)
			if res.Intercepted {
				b.Fatal("benign op intercepted")
			}
			env.Remove(winenv.KindMutex, req.Name)
		}
	}
	b.Run("none", func(b *testing.B) { run(b, 0) })
	b.Run("vaccines-1", func(b *testing.B) { run(b, 1) })
	b.Run("vaccines-10", func(b *testing.B) { run(b, 10) })
	b.Run("vaccines-119", func(b *testing.B) { run(b, 119) }) // the paper's count
	b.Run("vaccines-1190", func(b *testing.B) { run(b, 1190) })
}

// --- substrate micro-benches ---

// BenchmarkEmulator measures raw emulated instruction throughput.
func BenchmarkEmulator(b *testing.B) {
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		b.Fatal(err)
	}
	env := winenv.New(winenv.DefaultIdentity())
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		tr, err := emu.Run(sample.Program, env.Clone(), emu.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Exit == trace.ExitFault {
			b.Fatal(tr.Fault)
		}
		steps += tr.StepCount
	}
	b.ReportMetric(float64(steps)/float64(b.N), "instrs/op")
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkEmulatorWithSteps measures the instruction-level recording
// overhead backward slicing pays.
func BenchmarkEmulatorWithSteps(b *testing.B) {
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		b.Fatal(err)
	}
	env := winenv.New(winenv.DefaultIdentity())
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		tr, err := emu.Run(sample.Program, env.Clone(),
			emu.Options{Seed: benchSeed, RecordSteps: true})
		if err != nil {
			b.Fatal(err)
		}
		steps += tr.StepCount
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkEmulatorStalling measures instruction dispatch on the
// dynamic-analysis-evasion workload (stalling loop + timing check, see
// PAPERS.md): API-free straight-line code, so it reads the step loop's
// dispatch floor with API dispatch out of the picture.
func BenchmarkEmulatorStalling(b *testing.B) {
	spec := &malware.Spec{Name: "bench-stalling", Category: malware.Trojan,
		Behaviors: []malware.Behavior{
			{Kind: malware.BehStalling, Count: 20_000},
			{Kind: malware.BehMarkerMutex, ID: "BENCH-STALL-MUTEX"},
		}}
	r, err := emu.NewRunner(malware.MustEmit(spec), winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		tr, err := r.Run(emu.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Exit == trace.ExitFault {
			b.Fatal(tr.Fault)
		}
		steps += tr.StepCount
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkEmulatorPooled measures steady-state throughput through the
// Runner arena — the shape Phase-II impact analysis actually runs
// (environment snapshot/rewind instead of per-run construction).
func BenchmarkEmulatorPooled(b *testing.B) {
	sample, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		b.Fatal(err)
	}
	r, err := emu.NewRunner(sample.Program, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		tr, err := r.Run(emu.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		if tr.Exit == trace.ExitFault {
			b.Fatal(tr.Fault)
		}
		steps += tr.StepCount
	}
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/sec")
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
