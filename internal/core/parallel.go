package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// The corpus runner's fault-isolation contract (see DESIGN.md §9):
//
//   - One hostile sample cannot take down a corpus run. A panic inside
//     any per-sample analysis is recovered in the worker and converted
//     to a *SampleError carrying the sample name and the captured
//     stack; sibling samples are unaffected.
//   - Finished work is never discarded. Every healthy sample's Result
//     is returned even when other samples fail; failed samples leave a
//     nil slot.
//   - Errors aggregate deterministically. All per-sample failures are
//     joined (errors.Join) in sample-index order, regardless of worker
//     count or scheduling — a parallel run reports exactly what a
//     serial run reports.
//   - Runs are cancellable. Workers stop picking up new samples as
//     soon as the context is done; the call returns within one
//     sample-analysis of cancellation with everything completed so far.

// SampleError is one sample's analysis failure inside a corpus run. It
// wraps the underlying error (or the recovered panic value) with the
// sample's identity, so aggregated corpus errors stay attributable.
type SampleError struct {
	// Sample is the failing sample's name.
	Sample string
	// Index is the sample's position in the corpus.
	Index int
	// Panicked reports whether the failure was a recovered panic.
	Panicked bool
	// Stack is the goroutine stack captured at recovery (panics only).
	Stack []byte
	// Err is the underlying error; for panics it wraps the panic value.
	Err error
}

// Error renders the failure with its sample attribution.
func (e *SampleError) Error() string {
	return fmt.Sprintf("core: analysing %s: %v", e.Sample, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *SampleError) Unwrap() error { return e.Err }

// RunStats summarizes one corpus run.
type RunStats struct {
	// Analyzed counts samples that completed successfully.
	Analyzed int
	// Failed counts samples whose analysis returned an error,
	// including panics.
	Failed int
	// Panicked counts the subset of Failed that panicked.
	Panicked int
	// Skipped counts samples never started because the run was
	// cancelled or the error budget was exhausted.
	Skipped int
	// TriageSkipped counts samples Phase-0 triage proved unable to
	// invoke any resource API, whose emulation was skipped entirely
	// (subset of Analyzed).
	TriageSkipped int
	// SampleTimes holds per-sample wall time, indexed like the corpus
	// (zero for skipped samples).
	SampleTimes []time.Duration
	// Wall is the end-to-end wall time of the run.
	Wall time.Duration
}

// MeanSampleTime returns the mean wall time of the samples that ran.
func (st *RunStats) MeanSampleTime() time.Duration {
	ran := st.Analyzed + st.Failed
	if ran == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range st.SampleTimes {
		sum += d
	}
	return sum / time.Duration(ran)
}

// AnalysisStats converts the run statistics to the portable shape
// embedded in vaccine packs and served by the fleet's /v1/metrics.
func (st *RunStats) AnalysisStats() vaccine.AnalysisStats {
	return vaccine.AnalysisStats{
		Analyzed:      st.Analyzed,
		Failed:        st.Failed,
		Panicked:      st.Panicked,
		Skipped:       st.Skipped,
		TriageSkipped: st.TriageSkipped,
		WallMillis:    st.Wall.Milliseconds(),
	}
}

// CorpusOptions parameterizes AnalyzeCorpus.
type CorpusOptions struct {
	// Workers bounds the worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// MaxErrors stops dispatching new samples once this many have
	// failed (0 = no budget; the run always drains every sample).
	// Samples already in flight still finish and are reported.
	MaxErrors int
	// StaticTriage enables Phase-0 triage (static.RecoverAPISurface),
	// the one static admission gate: samples whose recovered API
	// surface provably contains no resource-labelled API skip
	// emulation entirely and yield an empty Result. Triage resolves
	// register-indirect (hash-resolved) callsites against the loader
	// image, so it also proves hash-resolving samples harmless. The
	// surface over-approximates every execution's call set, so packs
	// are byte-identical with triage on or off.
	StaticTriage bool
	// Deprecated: StaticPrefilter is ignored. The static taint
	// pre-filter it enabled was removed; StaticTriage is the only
	// static skip.
	StaticPrefilter bool
}

// analyzeTestHook, when set, runs at the start of every per-sample
// analysis inside the worker's recovery scope. Tests use it to inject
// deterministic errors and panics into corpus runs.
var analyzeTestHook func(s *malware.Sample) error

// SafeAnalyze runs Analyze with panic containment: a panic anywhere in
// the per-sample analysis is recovered and returned as a *SampleError
// carrying the sample name and the captured stack. Index is recorded
// as -1; corpus runs use their own per-index wrapper.
func (p *Pipeline) SafeAnalyze(s *malware.Sample) (*Result, error) {
	return p.analyzeIsolated(s, -1)
}

// analyzeIsolated is the fault-isolation boundary around one sample.
func (p *Pipeline) analyzeIsolated(s *malware.Sample, index int) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &SampleError{
				Sample:   s.Name(),
				Index:    index,
				Panicked: true,
				Stack:    debug.Stack(),
				Err:      fmt.Errorf("panic: %v", r),
			}
		}
	}()
	if analyzeTestHook != nil {
		if herr := analyzeTestHook(s); herr != nil {
			return nil, &SampleError{Sample: s.Name(), Index: index, Err: herr}
		}
	}
	res, err = p.Analyze(s)
	if err != nil {
		var se *SampleError
		if !errors.As(err, &se) {
			err = &SampleError{Sample: s.Name(), Index: index, Err: err}
		}
	}
	return res, err
}

// AnalyzeCorpus is the corpus entry point: bounded workers,
// cancellation, an optional error budget, per-sample fault isolation,
// and run statistics. See the contract at the top of this file. The
// pipeline's configuration is immutable and each analysis takes its
// own hosts from the pipeline's pool, so samples are embarrassingly
// parallel: results come back indexed by sample, identical to a
// serial run (workers only change wall-clock time, never output — the
// determinism tests pin this). The results slice is always
// len(samples) with nil slots for failed or skipped samples; an empty
// corpus returns an empty non-nil slice and no error.
func (p *Pipeline) AnalyzeCorpus(ctx context.Context, samples []*malware.Sample, opts CorpusOptions) ([]*Result, *RunStats, error) {
	start := time.Now()
	stats := &RunStats{SampleTimes: make([]time.Duration, len(samples))}
	results := make([]*Result, len(samples))
	if len(samples) == 0 {
		stats.Wall = time.Since(start)
		return results, stats, nil
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(samples) {
		workers = len(samples)
	}

	errs := make([]error, len(samples))
	triaged := make([]bool, len(samples))
	var failed atomic.Int64
	overBudget := func() bool {
		return opts.MaxErrors > 0 && failed.Load() >= int64(opts.MaxErrors)
	}
	// runOne is shared by the serial and parallel paths so their
	// semantics cannot drift.
	runOne := func(i int) {
		t0 := time.Now()
		if opts.StaticTriage && p.provablyResourceFree(samples[i]) {
			// Phase-0: the recovered API surface holds no resource API,
			// so no execution can even make a resource call.
			results[i] = &Result{Profile: &Profile{Sample: samples[i]}}
			triaged[i] = true
			stats.SampleTimes[i] = time.Since(t0)
			return
		}
		results[i], errs[i] = p.analyzeIsolated(samples[i], i)
		stats.SampleTimes[i] = time.Since(t0)
		if errs[i] != nil {
			failed.Add(1)
		}
	}

	if workers <= 1 {
		for i := range samples {
			if ctx.Err() != nil || overBudget() {
				break
			}
			runOne(i)
		}
	} else {
		// Work distribution by atomic counter: no producer goroutine,
		// no channel to deadlock on — nothing a dying or slow worker
		// can wedge. Workers claim the next index until the corpus is
		// drained, the context is cancelled, or the error budget is
		// exhausted.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(samples) || ctx.Err() != nil || overBudget() {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}

	var joined []error
	for i := range samples {
		if errs[i] != nil {
			stats.Failed++
			var se *SampleError
			if errors.As(errs[i], &se) && se.Panicked {
				stats.Panicked++
			}
			joined = append(joined, errs[i])
		} else if results[i] != nil {
			stats.Analyzed++
			if triaged[i] {
				stats.TriageSkipped++
			}
		} else {
			stats.Skipped++
		}
	}
	if err := ctx.Err(); err != nil {
		joined = append(joined, err)
	}
	stats.Wall = time.Since(start)
	return results, stats, errors.Join(joined...)
}
