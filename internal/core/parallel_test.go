package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"autovac/internal/malware"
)

// corpus builds a small deterministic corpus.
func corpus(t *testing.T, n int) []*malware.Sample {
	t.Helper()
	samples, err := malware.NewGenerator(17).Corpus(n)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// fingerprintResults renders results into comparable strings.
func fingerprintResults(rs []*Result) []string {
	out := make([]string, 0, len(rs))
	for _, r := range rs {
		line := r.Profile.Sample.Name() + ":"
		for _, v := range r.Vaccines {
			line += " " + v.String()
		}
		for _, rej := range r.ClinicRejections {
			line += " clinic(" + rej.String() + ")"
		}
		out = append(out, line)
	}
	return out
}

func TestAnalyzeAllMatchesSerial(t *testing.T) {
	samples := corpus(t, 24)
	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	// With the clinic on, the workers of each fresh pipeline race to
	// build its clinic suite and then share it.
	for _, cfg := range []Config{{Seed: 5}, {Seed: 5, Benign: benign[:8]}} {
		serial, _, err := New(cfg).AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			parallel, _, err := New(cfg).AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			a, b := fingerprintResults(serial), fingerprintResults(parallel)
			if len(a) != len(b) {
				t.Fatalf("clinic=%v workers=%d: %d vs %d results", cfg.Benign != nil, workers, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("clinic=%v workers=%d sample %d differs:\n  %s\n  %s", cfg.Benign != nil, workers, i, a[i], b[i])
				}
			}
		}
	}
}

func TestAnalyzeAllDefaultsWorkers(t *testing.T) {
	samples := corpus(t, 6)
	p := New(Config{Seed: 5})
	rs, _, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: 0}) // GOMAXPROCS, clamped to len
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(samples) {
		t.Fatalf("results = %d", len(rs))
	}
	for i, r := range rs {
		if r == nil || r.Profile.Sample != samples[i] {
			t.Fatalf("result %d out of order", i)
		}
	}
}

func TestAnalyzeAllEmpty(t *testing.T) {
	p := New(Config{Seed: 5})
	for _, samples := range [][]*malware.Sample{nil, {}} {
		rs, _, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: 4})
		if err != nil {
			t.Errorf("empty corpus: err = %v", err)
		}
		// The contract pins ([]*Result{}, nil): an empty non-nil slice,
		// so callers can range/len without a nil guard.
		if rs == nil || len(rs) != 0 {
			t.Errorf("empty corpus: results = %#v, want empty non-nil slice", rs)
		}
	}
}

// setHook installs an analysis test hook and restores it at cleanup.
func setHook(t *testing.T, hook func(*malware.Sample) error) {
	t.Helper()
	analyzeTestHook = hook
	t.Cleanup(func() { analyzeTestHook = nil })
}

// TestAnalyzeAllIsolatesFailures injects one panicking and one erroring
// sample and checks, across worker counts, that the run completes (no
// deadlock), siblings' results are intact, the failed slots are nil,
// and the aggregated error attributes both failures.
func TestAnalyzeAllIsolatesFailures(t *testing.T) {
	samples := corpus(t, 12)
	panicName, errName := samples[3].Name(), samples[8].Name()
	setHook(t, func(s *malware.Sample) error {
		switch s.Name() {
		case panicName:
			panic("injected test panic")
		case errName:
			return errors.New("injected test error")
		}
		return nil
	})
	p := New(Config{Seed: 5})

	for _, workers := range []int{1, 2, 4, 8} {
		rs, _, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no aggregated error", workers)
		}
		if len(rs) != len(samples) {
			t.Fatalf("workers=%d: %d results", workers, len(rs))
		}
		for i, r := range rs {
			failed := i == 3 || i == 8
			if failed && r != nil {
				t.Errorf("workers=%d: failed sample %d has a result", workers, i)
			}
			if !failed && (r == nil || r.Profile.Sample != samples[i]) {
				t.Errorf("workers=%d: sibling result %d lost or misplaced", workers, i)
			}
		}
		var se *SampleError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: aggregated error holds no *SampleError: %v", workers, err)
		}
		for _, want := range []string{panicName, errName, "injected test panic", "injected test error"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: aggregated error missing %q:\n%v", workers, want, err)
			}
		}
	}
}

// TestAnalyzeAllErrorOrderDeterministic pins that the aggregated error
// lists failures in sample-index order regardless of worker scheduling:
// every worker count must render the identical error string.
func TestAnalyzeAllErrorOrderDeterministic(t *testing.T) {
	samples := corpus(t, 16)
	bad := map[string]int{samples[3].Name(): 3, samples[7].Name(): 7, samples[12].Name(): 12}
	setHook(t, func(s *malware.Sample) error {
		if i, ok := bad[s.Name()]; ok {
			return fmt.Errorf("injected failure at index %d", i)
		}
		return nil
	})
	p := New(Config{Seed: 5})

	var serial string
	for _, workers := range []int{1, 2, 4, 8} {
		_, _, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if workers == 1 {
			serial = err.Error()
			// Sanity: index order means 3 before 7 before 12.
			for _, pair := range [][2]string{{"index 3", "index 7"}, {"index 7", "index 12"}} {
				if strings.Index(serial, pair[0]) > strings.Index(serial, pair[1]) {
					t.Fatalf("serial error out of index order:\n%s", serial)
				}
			}
			continue
		}
		if got := err.Error(); got != serial {
			t.Errorf("workers=%d error differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

// TestAnalyzeAllPanicStack checks the recovered panic carries the
// captured goroutine stack and the Panicked marker.
func TestAnalyzeAllPanicStack(t *testing.T) {
	samples := corpus(t, 4)
	setHook(t, func(s *malware.Sample) error {
		if s.Name() == samples[2].Name() {
			panic("boom")
		}
		return nil
	})
	p := New(Config{Seed: 5})
	_, _, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: 2})
	var se *SampleError
	if !errors.As(err, &se) {
		t.Fatalf("no *SampleError in %v", err)
	}
	if !se.Panicked || se.Index != 2 || se.Sample != samples[2].Name() {
		t.Errorf("SampleError = %+v, want panicked at index 2", se)
	}
	if len(se.Stack) == 0 || !strings.Contains(string(se.Stack), "goroutine") {
		t.Errorf("panic stack not captured: %q", se.Stack)
	}
}

// TestAnalyzeCorpusCancellation cancels mid-run and checks the call
// returns promptly with partial results and ctx's error joined.
func TestAnalyzeCorpusCancellation(t *testing.T) {
	samples := corpus(t, 32)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	setHook(t, func(s *malware.Sample) error {
		if started.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	p := New(Config{Seed: 5})

	rs, st, err := p.AnalyzeCorpus(ctx, samples, CorpusOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined", err)
	}
	if len(rs) != len(samples) {
		t.Fatalf("results = %d", len(rs))
	}
	// In-flight samples finish; nothing new starts after cancel. With 4
	// workers, at most 4 + the triggering sample can complete.
	if st.Analyzed == 0 || st.Analyzed >= len(samples) {
		t.Errorf("Analyzed = %d, want partial (0 < n < %d)", st.Analyzed, len(samples))
	}
	if st.Skipped == 0 || st.Analyzed+st.Skipped != len(samples) {
		t.Errorf("stats don't add up: %+v (corpus %d)", st, len(samples))
	}
	for i, r := range rs {
		if r != nil && r.Profile.Sample != samples[i] {
			t.Errorf("result %d misplaced", i)
		}
	}
}

// TestAnalyzeCorpusMaxErrors checks the error budget stops dispatch:
// with every sample failing and MaxErrors=3, the run ends early with
// the rest skipped, and still reports each failure that did run.
func TestAnalyzeCorpusMaxErrors(t *testing.T) {
	samples := corpus(t, 24)
	setHook(t, func(s *malware.Sample) error { return errors.New("always fails") })
	p := New(Config{Seed: 5})

	rs, st, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: 2, MaxErrors: 3})
	if err == nil {
		t.Fatal("no error")
	}
	if len(rs) != len(samples) {
		t.Fatalf("results = %d", len(rs))
	}
	// In-flight samples may push past the budget by up to the worker
	// count, but dispatch must stop: most of the corpus stays skipped.
	if st.Failed < 3 || st.Failed > 3+2 {
		t.Errorf("Failed = %d, want 3..5", st.Failed)
	}
	if st.Skipped != len(samples)-st.Failed {
		t.Errorf("Skipped = %d, Failed = %d, corpus %d", st.Skipped, st.Failed, len(samples))
	}
}

// TestRunStatsAccounting checks stats on a healthy run: every sample
// analyzed, per-sample times recorded, and the pack-portable conversion
// carries the same numbers.
func TestRunStatsAccounting(t *testing.T) {
	samples := corpus(t, 8)
	p := New(Config{Seed: 5})
	rs, st, err := p.AnalyzeCorpus(context.Background(), samples, CorpusOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Analyzed != len(samples) || st.Failed != 0 || st.Panicked != 0 || st.Skipped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(st.SampleTimes) != len(samples) {
		t.Fatalf("SampleTimes = %d", len(st.SampleTimes))
	}
	if st.MeanSampleTime() <= 0 || st.Wall <= 0 {
		t.Errorf("times not recorded: mean=%v wall=%v", st.MeanSampleTime(), st.Wall)
	}
	as := st.AnalysisStats()
	if as.Analyzed != len(rs) || as.Failed != 0 {
		t.Errorf("AnalysisStats = %+v", as)
	}
}
