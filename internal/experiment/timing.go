package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// Timing reproduces the §VI-F performance evaluation as a measured
// table: vaccine-generation overhead (per-sample analysis, backward
// slicing, impact analysis) and deployment overhead (batch static
// injection, slice replay, daemon hook cost). The paper's absolute
// numbers come from 2013 hardware over real binaries; the structure —
// what is one-time vs recurring, what dominates — is the reproducible
// part. Every row is the spread of timingReps timed repetitions: one
// timing of a shared machine swings 2-5x between runs.
type Timing struct {
	// SamplesTimed is the number of samples behind PerSampleAnalysis.
	SamplesTimed int
	// SamplesFailed counts samples whose analysis errored or panicked
	// during the timing sweep; they are excluded from the mean.
	SamplesFailed int
	// PerSampleAnalysis is the mean end-to-end Phase-I+II time
	// (paper: 789 s).
	PerSampleAnalysis Spread
	// BackwardSlicing is the mean slice-extraction time per identifier
	// (paper: 214 s).
	BackwardSlicing Spread
	// ImpactAnalysis is the mean mutated-run-plus-diff time per case
	// (paper: 2–3 min).
	ImpactAnalysis Spread
	// StaticBatchInjection is the time to install 373 static vaccines
	// on one host (paper: 34 s).
	StaticBatchInjection Spread
	// SliceReplay is the mean per-vaccine replay time (paper: 25.7 s).
	SliceReplay Spread
	// HookBaseline and HookWith119 are per-operation costs without a
	// daemon and with the paper's 119 partial-static vaccines.
	HookBaseline Spread
	HookWith119  Spread
	// EmulatorStepsPerSec is the raw emulated-instruction throughput of
	// pooled re-execution — the multiplier under Phase-I profiling,
	// Phase-II impact re-runs, and slice replays alike.
	EmulatorStepsPerSec Spread
}

// Spread summarises one row's timed repetitions: their median and
// quartiles. Duration rows hold nanoseconds per operation; the emulator
// row holds instructions per second.
type Spread struct {
	Median, Q1, Q3 float64
}

// timingReps is how many timed repetitions every row takes.
const timingReps = 5

// timed runs body timingReps times and returns the spread of its time
// per operation: each repetition's wall time over the operation count
// body returns.
func timed(body func() (ops int, err error)) (Spread, error) {
	xs := make([]float64, timingReps)
	for i := range xs {
		start := time.Now()
		ops, err := body()
		if err != nil {
			return Spread{}, err
		}
		xs[i] = float64(time.Since(start)) / float64(max(ops, 1))
	}
	return spreadOf(xs), nil
}

// spreadOf sorts xs and returns its median and quartiles, linearly
// interpolated between order statistics.
func spreadOf(xs []float64) Spread {
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		i := int(pos)
		if i+1 >= len(xs) {
			return xs[len(xs)-1]
		}
		return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
	}
	return Spread{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}

// HookAddedCost returns the absolute per-operation cost the 119-pattern
// daemon adds to a same-namespace resource operation (the difference of
// the medians). The paper reports the RELATIVE figure (<4.5%) against
// real Windows syscall latencies; on this in-memory substrate a base
// operation costs nanoseconds, so relative ratios do not transfer — the
// absolute added cost (a pattern scan within one namespace) is the
// meaningful number.
func (t *Timing) HookAddedCost() time.Duration {
	return time.Duration(t.HookWith119.Median - t.HookBaseline.Median)
}

// MeasureTiming runs the §VI-F measurements over a slice of the corpus.
func (s *Setup) MeasureTiming(sampleBudget int) (*Timing, error) {
	tm := &Timing{}
	var err error

	// Per-sample end-to-end analysis.
	n := sampleBudget
	if n <= 0 || n > len(s.Samples) {
		n = len(s.Samples)
	}
	tm.PerSampleAnalysis, err = timed(func() (int, error) {
		tm.SamplesFailed = 0
		for _, sm := range s.Samples[:n] {
			// Per-sample isolation: a failing sample is excluded from
			// the mean rather than aborting the whole measurement.
			if _, err := s.Pipeline.SafeAnalyze(sm); err != nil {
				tm.SamplesFailed++
			}
		}
		return n - tm.SamplesFailed, nil
	})
	if err != nil {
		return nil, err
	}
	tm.SamplesTimed = n - tm.SamplesFailed

	// Backward slicing on an algorithm-deterministic identifier.
	spec := &malware.Spec{Name: "timing-algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	tr, err := emu.Run(prog, winenv.New(s.Pipeline.Identity()),
		emu.Options{Seed: s.Pipeline.Seed(), RecordSteps: true, Registry: s.Pipeline.Registry()})
	if err != nil {
		return nil, err
	}
	seq := tr.CallsTo("CreateMutexA")[0].Seq
	var sl *determinism.Slice
	tm.BackwardSlicing, err = timed(func() (int, error) {
		const reps = 50
		for i := 0; i < reps; i++ {
			if sl, err = determinism.Extract(prog, tr, seq); err != nil {
				return 0, err
			}
		}
		return reps, nil
	})
	if err != nil {
		return nil, err
	}

	// Impact analysis: one mutated re-run plus classification.
	zeus, err := s.Generator.FamilySample(malware.Zeus)
	if err != nil {
		return nil, err
	}
	normal, err := emu.Run(zeus.Program, winenv.New(s.Pipeline.Identity()),
		emu.Options{Seed: s.Pipeline.Seed(), Registry: s.Pipeline.Registry()})
	if err != nil {
		return nil, err
	}
	tm.ImpactAnalysis, err = timed(func() (int, error) {
		const reps = 25
		for i := 0; i < reps; i++ {
			mutated, err := emu.Run(zeus.Program, winenv.New(s.Pipeline.Identity()),
				emu.Options{Seed: s.Pipeline.Seed(), Registry: s.Pipeline.Registry(),
					Mutations: []emu.Mutation{{API: "OpenMutexA", CallerPC: -1,
						Identifier: "_AVIRA_2109", Mode: emu.ForceSuccess}}})
			if err != nil {
				return 0, err
			}
			impact.Classify(mutated, normal)
		}
		return reps, nil
	})
	if err != nil {
		return nil, err
	}

	// Deployment: 373 static vaccines (the paper's count) on one host.
	static := make([]vaccine.Vaccine, 373)
	for i := range static {
		static[i] = vaccine.Vaccine{
			ID: fmt.Sprintf("timing/mutex/%d", i), Sample: "timing",
			Resource: winenv.KindMutex, Identifier: fmt.Sprintf("TIMING-%04d", i),
			Class: determinism.Static, Op: "open", API: "OpenMutexA",
			Effect: impact.Full, Polarity: vaccine.SimulatePresence,
			Delivery: vaccine.DirectInjection,
		}
	}
	tm.StaticBatchInjection, err = timed(func() (int, error) {
		d := s.Pipeline.NewDaemonFor(winenv.New(s.Pipeline.Identity()))
		for i := range static {
			if err := d.Install(static[i]); err != nil {
				return 0, err
			}
		}
		return 1, nil
	})
	if err != nil {
		return nil, err
	}

	// Slice replay per algorithmic vaccine, on one end host: Replay
	// rewinds its own side effects, so the host is built once.
	host := winenv.New(s.Pipeline.Identity())
	tm.SliceReplay, err = timed(func() (int, error) {
		const reps = 25
		for i := 0; i < reps; i++ {
			if _, err := sl.Replay(host, s.Pipeline.Seed()); err != nil {
				return 0, err
			}
		}
		return reps, nil
	})
	if err != nil {
		return nil, err
	}

	// Hook overhead: per-op cost with no daemon vs 119 patterns.
	if tm.HookBaseline, err = timed(hookCost(s, 0)); err != nil {
		return nil, err
	}
	if tm.HookWith119, err = timed(hookCost(s, 119)); err != nil {
		return nil, err
	}

	// Raw emulator throughput through a pooled Runner — the Phase-II
	// steady-state shape (one arena, many runs).
	runner, err := emu.NewRunner(zeus.Program, winenv.New(s.Pipeline.Identity()))
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	perStep, err := timed(func() (int, error) {
		steps := 0
		for i := 0; i < 200; i++ {
			tr, err := runner.Run(emu.Options{Seed: s.Pipeline.Seed(), Registry: s.Pipeline.Registry()})
			if err != nil {
				return 0, err
			}
			steps += tr.StepCount
		}
		return steps, nil
	})
	if err != nil {
		return nil, err
	}
	// Throughput is the reciprocal, so the quartiles swap.
	tm.EmulatorStepsPerSec = Spread{Median: 1e9 / perStep.Median, Q1: 1e9 / perStep.Q3, Q3: 1e9 / perStep.Q1}
	return tm, nil
}

// hookCost returns a timed body measuring the per-operation cost of a
// resource probe on a host with n partial-static daemon patterns
// installed.
func hookCost(s *Setup, n int) func() (int, error) {
	env := winenv.New(s.Pipeline.Identity())
	if n > 0 {
		d := s.Pipeline.NewDaemonFor(env)
		for i := 0; i < n; i++ {
			_ = d.Install(vaccine.Vaccine{
				ID: fmt.Sprintf("hook/mutex/%d", i), Sample: "hook",
				Resource: winenv.KindMutex, Pattern: fmt.Sprintf("HOOKFAM%04d-*", i),
				Class: determinism.PartialStatic, Op: "create", API: "CreateMutexA",
				Effect: impact.Full, Polarity: vaccine.SimulatePresence,
				Delivery: vaccine.VaccineDaemon,
			})
		}
	}
	req := winenv.Request{Kind: winenv.KindMutex, Op: winenv.OpCreate,
		Name: "benign-instance-mutex", Principal: "app"}
	return func() (int, error) {
		const reps = 4000
		for i := 0; i < reps; i++ {
			env.Do(req)
			env.Remove(winenv.KindMutex, req.Name)
		}
		return reps, nil
	}
}

// RenderTiming renders the §VI-F table with the paper's reference
// numbers alongside; each measured row is "median [Q1–Q3]".
func RenderTiming(tm *Timing) string {
	var b strings.Builder
	b.WriteString("Performance (§VI-F) — paper (2013 testbed, real binaries) vs measured\n")
	fmt.Fprintf(&b, "%-44s %-12s %s\n", "Measurement",
		"Paper", fmt.Sprintf("Measured, median [Q1–Q3] of %d", timingReps))
	d := func(ns float64) time.Duration { return round3(time.Duration(ns)) }
	row := func(what, paper string, sp Spread) {
		fmt.Fprintf(&b, "%-44s %-12s %v [%v–%v]\n", what, paper, d(sp.Median), d(sp.Q1), d(sp.Q3))
	}
	row(fmt.Sprintf("analysis per sample (n=%d)", tm.SamplesTimed), "789 s", tm.PerSampleAnalysis)
	row("backward slicing per identifier", "214 s", tm.BackwardSlicing)
	row("impact analysis per mutation case", "2-3 min", tm.ImpactAnalysis)
	row("install 373 static vaccines", "34 s", tm.StaticBatchInjection)
	row("slice replay per algorithmic vaccine", "25.7 s", tm.SliceReplay)
	row("resource op, no daemon", "-", tm.HookBaseline)
	row("resource op, 119 daemon patterns", "<4.5% ovh", tm.HookWith119)
	fmt.Fprintf(&b, "%-44s %-12s %v\n", "daemon cost added per same-namespace op", "", round3(tm.HookAddedCost()))
	e := tm.EmulatorStepsPerSec
	fmt.Fprintf(&b, "%-44s %-12s %.2f [%.2f–%.2f] Minstr/s\n",
		"emulator throughput (pooled re-execution)", "-", e.Median/1e6, e.Q1/1e6, e.Q3/1e6)
	b.WriteString("(relative hook ratios do not transfer from an in-memory substrate;\n")
	b.WriteString(" against a ~10µs real syscall the added cost stays in the paper's band)\n")
	return b.String()
}

// round3 rounds a duration to three significant digits.
func round3(d time.Duration) time.Duration {
	unit := time.Duration(1)
	for d/unit >= 1000 || -d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit)
}
