package core

import (
	"testing"

	"autovac/internal/exclusive"
	"autovac/internal/malware"
	"autovac/internal/static"
)

// crossCheckCorpus is the corpus size the soundness cross-checks run
// over. Big enough to hit every behaviour generator and family mix,
// small enough for a unit test.
const crossCheckCorpus = 64

// TestStaticAnalysisSoundOnCorpus is the soundness cross-check between
// determinism analysis's dynamic slices and the static def-use chains
// that over-approximate them, on every corpus sample: every extracted
// replay slice's instruction set is contained in the static backward
// slice of its criterion.
func TestStaticAnalysisSoundOnCorpus(t *testing.T) {
	samples, err := malware.NewGenerator(3).Corpus(crossCheckCorpus)
	if err != nil {
		t.Fatal(err)
	}
	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := exclusive.BuildIndex(benign, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Config{Seed: 3, Index: ix})

	slicesChecked := 0
	for _, s := range samples {
		res, err := p.Analyze(s)
		if err != nil {
			t.Fatalf("%s: analyze: %v", s.Name(), err)
		}
		cfg, err := static.BuildCFG(s.Program)
		if err != nil {
			t.Fatalf("%s: BuildCFG: %v", s.Name(), err)
		}

		var du *static.DefUse
		for _, v := range res.Vaccines {
			if v.Slice == nil || len(v.Slice.PCs) == 0 {
				continue
			}
			if du == nil {
				du = static.BuildDefUse(cfg)
			}
			slicesChecked++
			stat := du.BackwardSlice(v.Slice.CriterionPC)
			for _, pc := range v.Slice.PCs {
				if !stat[pc] {
					t.Errorf("%s: vaccine %s: dynamic slice pc %d outside static backward slice of pc %d",
						s.Name(), v.ID, pc, v.Slice.CriterionPC)
				}
			}
		}
	}
	// The cross-check is vacuous if the corpus produced nothing to
	// compare; guard against a silent regression in the generators.
	if slicesChecked == 0 {
		t.Error("corpus produced no algorithm-deterministic slices — cross-check did not exercise backward slicing")
	}
}
