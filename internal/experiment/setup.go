// Package experiment regenerates every table and figure of the paper's
// evaluation (§VI) over the synthetic corpus: Table II (corpus mix),
// the Phase-I statistics and Figure 3 (resource-sensitive behaviour),
// Tables III–VI (vaccine generation, case studies, family statistics),
// Figure 4 (BDR distribution), Table VII (variant effectiveness), the
// clinic false-positive test, and the §VI-F performance measurements.
//
// Every experiment is deterministic in its seed; the benchreport
// command and bench_test.go are thin wrappers over this package.
package experiment

import (
	"fmt"
	"runtime/debug"

	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/malware"
)

// guard runs one unit of experimental work with panic containment: a
// panic inside f comes back as an error carrying the captured stack,
// so one hostile sample cannot take down a whole experiment sweep.
// Callers wrap the returned error with unit attribution.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// Setup bundles everything the experiments share: the corpus, the
// benign suite, the exclusiveness index, and a configured pipeline.
type Setup struct {
	// Samples is the malware corpus (Table II mix).
	Samples []*malware.Sample
	// Benign is the benign-software suite.
	Benign []*malware.Sample
	// Index is the benign-resource index.
	Index *exclusive.Index
	// Pipeline is the configured analysis pipeline.
	Pipeline *core.Pipeline
	// Generator regenerates variants deterministically.
	Generator *malware.Generator
	// Seed is the experiment seed.
	Seed int64
}

// NewSetup builds an experiment setup with the given corpus size.
// Size 1716 reproduces the paper's corpus exactly; smaller sizes keep
// the same category mix for quick runs. The clinic test is not wired
// into the pipeline here (it is exercised by the dedicated
// false-positive experiment); the exclusiveness index is.
func NewSetup(seed int64, corpusSize int) (*Setup, error) {
	gen := malware.NewGenerator(seed)
	samples, err := gen.Corpus(corpusSize)
	if err != nil {
		return nil, fmt.Errorf("experiment: corpus: %w", err)
	}
	benign, err := malware.BenignCorpus()
	if err != nil {
		return nil, fmt.Errorf("experiment: benign corpus: %w", err)
	}
	ix, err := exclusive.BuildIndex(benign, uint64(seed))
	if err != nil {
		return nil, fmt.Errorf("experiment: index: %w", err)
	}
	return &Setup{
		Samples:   samples,
		Benign:    benign,
		Index:     ix,
		Pipeline:  core.New(core.Config{Seed: uint64(seed), Index: ix}),
		Generator: gen,
		Seed:      seed,
	}, nil
}

// CategoryCount is one Table II row.
type CategoryCount struct {
	Category malware.Category
	Count    int
	Percent  float64
}

// TableII computes the corpus classification (paper Table II).
func (s *Setup) TableII() []CategoryCount {
	counts := make(map[malware.Category]int)
	for _, sm := range s.Samples {
		counts[sm.Spec.Category]++
	}
	total := len(s.Samples)
	var rows []CategoryCount
	for _, cat := range malware.Categories() {
		rows = append(rows, CategoryCount{
			Category: cat,
			Count:    counts[cat],
			Percent:  100 * float64(counts[cat]) / float64(total),
		})
	}
	return rows
}
