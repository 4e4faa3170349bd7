package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"autovac/internal/core"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// TriageStudy compares a full corpus analysis with Phase-0 static
// triage off (the dynamic baseline) and on, over the stock corpus plus
// the hash-resolving bands — the population triage can skip, since
// every stock behaviour calls a resource API by name. The recovered
// API surface over-approximates every execution's call set, so the two
// runs must produce byte-identical vaccine packs; the study reports
// how many samples triage proved unable to make any resource call
// (emulation skipped outright), the wall-clock on both sides, and
// flags any pack divergence as a soundness violation.
type TriageStudy struct {
	// Samples is the total corpus size both runs covered (stock corpus
	// plus the appended hash-resolving bands).
	Samples int
	// HashResolving counts the appended hash-resolving samples.
	HashResolving int
	// Skipped counts samples triage proved resource-free (their
	// emulation was skipped entirely).
	Skipped int
	// DynamicWall and TriageWall are the two runs' wall-clock times.
	DynamicWall time.Duration
	TriageWall  time.Duration
	// Vaccines is the vaccine count (identical in both runs when sound).
	Vaccines int
	// Identical reports whether the two packs had the same digest. A
	// false value means triage skipped a sample that had a vaccine — a
	// soundness bug.
	Identical bool
}

// SkippedRatio returns the fraction of samples skipped.
func (t *TriageStudy) SkippedRatio() float64 {
	if t.Samples == 0 {
		return 0
	}
	return float64(t.Skipped) / float64(t.Samples)
}

// Triage runs the study: the stock corpus extended with perBand
// hash-resolving samples per band is analysed once with Phase-0 triage
// off and once with it on, packs compared by digest.
func (s *Setup) Triage(ctx context.Context, perBand int) (*TriageStudy, error) {
	hr, err := s.Generator.HashResolveCorpus(perBand)
	if err != nil {
		return nil, fmt.Errorf("experiment: triage corpus: %w", err)
	}
	samples := append(append([]*malware.Sample{}, s.Samples...), hr...)

	run := func(triage bool) (*vaccine.Pack, *core.RunStats, time.Duration, error) {
		t0 := time.Now()
		results, stats, err := s.Pipeline.AnalyzeCorpus(ctx, samples, core.CorpusOptions{
			StaticTriage: triage,
		})
		wall := time.Since(t0)
		if err != nil {
			return nil, nil, wall, err
		}
		pack := &vaccine.Pack{Generator: "experiment/triage"}
		for _, res := range results {
			if res != nil {
				pack.Vaccines = append(pack.Vaccines, res.Vaccines...)
			}
		}
		return pack, stats, wall, nil
	}
	dynPack, _, dynWall, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("experiment: triage baseline: %w", err)
	}
	triPack, triStats, triWall, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiment: triage run: %w", err)
	}
	return &TriageStudy{
		Samples:       len(samples),
		HashResolving: len(hr),
		Skipped:       triStats.TriageSkipped,
		DynamicWall:   dynWall,
		TriageWall:    triWall,
		Vaccines:      len(dynPack.Vaccines),
		Identical:     dynPack.Digest() == triPack.Digest(),
	}, nil
}

// RenderTriage renders the study as a small report block.
func RenderTriage(t *TriageStudy) string {
	var b strings.Builder
	b.WriteString("Phase-0 triage study (static API-surface recovery)\n")
	fmt.Fprintf(&b, "samples:           %d (%d hash-resolving)\n", t.Samples, t.HashResolving)
	fmt.Fprintf(&b, "triage skipped:    %d (%.1f%%)\n", t.Skipped, 100*t.SkippedRatio())
	fmt.Fprintf(&b, "dynamic-only wall: %v\n", t.DynamicWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "triage wall:       %v\n", t.TriageWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "vaccines:          %d\n", t.Vaccines)
	if t.Identical {
		b.WriteString("packs: byte-identical (triage is sound on this corpus)\n")
	} else {
		b.WriteString("packs: DIVERGED — triage dropped a vaccine (soundness bug)\n")
	}
	return b.String()
}
