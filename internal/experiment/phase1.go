package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"autovac/internal/core"
	"autovac/internal/winenv"
)

// Phase1Stats aggregates the Phase-I evaluation (§VI-B): how many
// resource-API occurrences the corpus produced, how many can deviate
// execution, and the per-resource/per-operation breakdown of Figure 3.
type Phase1Stats struct {
	// SamplesRun is the corpus size profiled.
	SamplesRun int
	// SamplesFlagged counts samples with at least one candidate
	// ("possibly has a vaccine").
	SamplesFlagged int
	// Occurrences is the total count of tracked resource-API calls
	// (the paper reports 460,323).
	Occurrences int
	// Sensitive is the count of occurrences whose taint reached a
	// predicate (the paper reports 371,015 = 80.3%).
	Sensitive int
	// ByKindOp buckets sensitive occurrences by resource kind and
	// operation (Figure 3's data).
	ByKindOp map[winenv.ResourceKind]map[winenv.Op]int
}

// SensitiveRatio returns Sensitive/Occurrences.
func (st *Phase1Stats) SensitiveRatio() float64 {
	if st.Occurrences == 0 {
		return 0
	}
	return float64(st.Sensitive) / float64(st.Occurrences)
}

// KindShare returns the fraction of sensitive occurrences on one
// resource kind (the paper: file 37.39%, registry 20.08%, mutex 7.07%,
// windows 13.14%, process 8.02%, library 6.6%, service 3.4%).
func (st *Phase1Stats) KindShare(kind winenv.ResourceKind) float64 {
	if st.Sensitive == 0 {
		return 0
	}
	n := 0
	for _, c := range st.ByKindOp[kind] {
		n += c
	}
	return float64(n) / float64(st.Sensitive)
}

// parallelIndexes fans indexes out to GOMAXPROCS workers and waits.
// Workers claim indexes from a shared atomic counter — there is no
// producer goroutine and no channel, so a panicking work item can
// never leave the dispatcher blocked on a send nobody will receive.
// Every call runs under recovery; a panic is captured (first one wins)
// and re-raised on the calling goroutine after the pool drains, where
// the experiment-level guard can contain it.
func (s *Setup) parallelIndexes(n int, work func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicMu  sync.Mutex
		panicVal interface{}
		panicTB  []byte
	)
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
					panicTB = debug.Stack()
				}
				panicMu.Unlock()
			}
		}()
		work(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(fmt.Sprintf("experiment: worker panic: %v\n%s", panicVal, panicTB))
	}
}

// RunPhase1 profiles the whole corpus and returns the statistics plus
// the per-sample profiles (consumed by the Phase-II experiments).
// Profiling runs on the Setup's worker pool; aggregation is serial and
// in sample order, so the statistics are worker-count independent.
// Failures (errors and panics alike) are isolated per sample: healthy
// samples are aggregated and returned even when others fail, with the
// failures joined — in sample order — into the returned error.
func (s *Setup) RunPhase1() (*Phase1Stats, []*core.Profile, error) {
	st := &Phase1Stats{
		ByKindOp: make(map[winenv.ResourceKind]map[winenv.Op]int),
	}
	profs := make([]*core.Profile, len(s.Samples))
	errs := make([]error, len(s.Samples))
	s.parallelIndexes(len(s.Samples), func(i int) {
		errs[i] = guard(func() error {
			var err error
			profs[i], err = s.Pipeline.Phase1(s.Samples[i])
			return err
		})
	})
	var profiles []*core.Profile
	var failures []error
	for i, sm := range s.Samples {
		if errs[i] != nil {
			failures = append(failures, fmt.Errorf("experiment: phase1 %s: %w", sm.Name(), errs[i]))
			continue
		}
		prof := profs[i]
		st.SamplesRun++
		st.Occurrences += prof.ResourceOccurrences
		st.Sensitive += prof.SensitiveOccurrences
		if prof.HasVaccineCandidates() {
			st.SamplesFlagged++
		}
		// Labels that reached a predicate in this profile.
		hot := make(map[uint32]bool)
		for _, hit := range prof.Normal.Predicates {
			for _, hs := range hit.Sources {
				hot[uint32(hs)] = true
			}
		}
		for _, c := range prof.Normal.Calls {
			if c.ResourceKind == "" {
				continue
			}
			// Bucket only the sensitive occurrences, like Figure 3.
			sensitive := false
			for _, src := range c.TaintSources {
				if hot[uint32(src)] {
					sensitive = true
					break
				}
			}
			if !sensitive {
				continue
			}
			kind, err := winenv.ParseKind(c.ResourceKind)
			if err != nil {
				continue
			}
			op, err := parseOp(c.Op)
			if err != nil {
				continue
			}
			m := st.ByKindOp[kind]
			if m == nil {
				m = make(map[winenv.Op]int)
				st.ByKindOp[kind] = m
			}
			m[op]++
		}
		profiles = append(profiles, prof)
	}
	return st, profiles, errors.Join(failures...)
}

// parseOp converts an op name back to the enum.
func parseOp(s string) (winenv.Op, error) {
	for _, op := range winenv.Ops() {
		if op.String() == s {
			return op, nil
		}
	}
	return winenv.OpInvalid, fmt.Errorf("experiment: unknown op %q", s)
}

// Figure3Row is one bar group of Figure 3: a resource kind with its
// per-operation share of all sensitive occurrences.
type Figure3Row struct {
	Kind winenv.ResourceKind
	// Share maps operation -> percentage of ALL sensitive occurrences.
	Share map[winenv.Op]float64
	// Total is the kind's combined percentage.
	Total float64
}

// Figure3 derives the resource-sensitive behaviour distribution
// (paper Figure 3) from Phase-I statistics.
func Figure3(st *Phase1Stats) []Figure3Row {
	var rows []Figure3Row
	for _, kind := range winenv.Kinds() {
		row := Figure3Row{Kind: kind, Share: make(map[winenv.Op]float64)}
		for op, n := range st.ByKindOp[kind] {
			pct := 100 * float64(n) / float64(max(st.Sensitive, 1))
			row.Share[op] = pct
			row.Total += pct
		}
		rows = append(rows, row)
	}
	return rows
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
