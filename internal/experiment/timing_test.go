package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestMeasureTiming(t *testing.T) {
	s := smallSetup(t, 10)
	tm, err := s.MeasureTiming(5)
	if err != nil {
		t.Fatal(err)
	}
	if tm.SamplesTimed != 5 {
		t.Errorf("samples timed = %d", tm.SamplesTimed)
	}
	for name, sp := range map[string]Spread{
		"analysis":   tm.PerSampleAnalysis,
		"slicing":    tm.BackwardSlicing,
		"impact":     tm.ImpactAnalysis,
		"injection":  tm.StaticBatchInjection,
		"replay":     tm.SliceReplay,
		"hook":       tm.HookBaseline,
		"hook-119":   tm.HookWith119,
		"throughput": tm.EmulatorStepsPerSec,
	} {
		if sp.Q1 <= 0 || sp.Q1 > sp.Median || sp.Median > sp.Q3 {
			t.Errorf("%s: want 0 < Q1 <= median <= Q3, got %+v", name, sp)
		}
	}
	// Structure claims: batch static injection is cheaper than analysing
	// a sample end to end; the daemon adds measurable but bounded cost.
	if tm.HookWith119.Median < tm.HookBaseline.Median {
		t.Errorf("hook with patterns (%v) cheaper than baseline (%v)", tm.HookWith119, tm.HookBaseline)
	}
	if tm.HookAddedCost() < 0 || tm.HookAddedCost() > time.Millisecond {
		t.Errorf("added hook cost = %v", tm.HookAddedCost())
	}
	text := RenderTiming(tm)
	for _, frag := range []string{"789 s", "214 s", "25.7 s", "373 static", "Minstr/s", "median [Q1–Q3] of 5"} {
		if !strings.Contains(text, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

func TestSpreadOf(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want Spread
	}{
		{[]float64{5, 1, 4, 2, 3}, Spread{Median: 3, Q1: 2, Q3: 4}},
		{[]float64{7}, Spread{Median: 7, Q1: 7, Q3: 7}},
		{[]float64{4, 1, 3, 2}, Spread{Median: 2.5, Q1: 1.75, Q3: 3.25}},
	} {
		if got := spreadOf(tc.xs); got != tc.want {
			t.Errorf("spreadOf = %+v, want %+v", got, tc.want)
		}
	}
}
