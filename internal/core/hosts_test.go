package core

import (
	"context"
	"encoding/json"
	"testing"

	"autovac/internal/exclusive"
	"autovac/internal/malware"
)

// analysisJSON renders what a sample's analysis produced: the natural
// trace, the candidates, the vaccines and the rejections.
func analysisJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Normal     any
		Candidates any
		Vaccines   any
		Rejected   any
	}{res.Profile.Normal, res.Profile.Candidates, res.Vaccines, res.Rejected})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPooledHostsMatchFreshPipelines runs one shared pipeline, whose
// analysis hosts are pooled and rewound between uses, over a mixed
// corpus with two workers: Table-II, the three hash-resolving bands,
// and the network bands under a C2-configured pipeline. Every sample's
// natural trace, candidates, vaccines and rejections must equal those
// of a new pipeline that analyses that sample alone.
func TestPooledHostsMatchFreshPipelines(t *testing.T) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := exclusive.BuildIndex(benign, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := malware.NewGenerator(1)
	tableII, err := gen.Corpus(120)
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
	vaccines, slices, rejected := 0, 0, 0
	for _, band := range []struct {
		cfg     Config
		samples []*malware.Sample
	}{
		{Config{Seed: 1, Index: ix}, append(tableII, hashed...)},
		{Config{Seed: 1, Index: ix, C2: scenario}, netSamples},
	} {
		results, _, err := New(band.cfg).AnalyzeCorpus(context.Background(), band.samples, CorpusOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range band.samples {
			fresh, err := New(band.cfg).Analyze(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got, want := analysisJSON(t, results[i]), analysisJSON(t, fresh); got != want {
				t.Fatalf("%s: the shared pipeline diverged from a fresh one:\n got %s\nwant %s", s.Name(), got, want)
			}
			vaccines += len(fresh.Vaccines)
			rejected += len(fresh.Rejected)
			for _, v := range fresh.Vaccines {
				if v.Slice != nil {
					slices++
				}
			}
		}
	}
	// Every host kind must have served: the runner (rejections and
	// vaccines) and the slice-sanity replay (slices).
	if vaccines == 0 || slices == 0 || rejected == 0 {
		t.Errorf("corpus too tame: %d vaccines, %d with slices, %d rejections", vaccines, slices, rejected)
	}
}
