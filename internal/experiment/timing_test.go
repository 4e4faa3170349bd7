package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestMeasureTiming(t *testing.T) {
	rs, err := MeasureTiming()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(timingRows) {
		t.Fatalf("measured %d rows, want the %d of the §VI-F table", len(rs), len(timingRows))
	}
	median := make(map[string]float64, len(rs))
	for _, r := range rs {
		sp := r.NsPerOp
		if r.Reps < 5 || sp.Q1 <= 0 || sp.Q1 > sp.Median || sp.Median > sp.Q3 {
			t.Errorf("%s: want 0 < Q1 <= median <= Q3 over >= 5 runs, got %+v over %d", r.Name, sp, r.Reps)
		}
		median[r.Name] = sp.Median
	}
	if _, ok := median["DaemonHookOverhead/vaccines-1190"]; !ok {
		t.Error("no 1,190-pattern row")
	}
	// Structure claims: the daemon adds measurable but bounded cost.
	added := time.Duration(median["DaemonHookOverhead/vaccines-119"] - median["DaemonHookOverhead/none"])
	if added < 0 || added > time.Millisecond {
		t.Errorf("added hook cost = %v", added)
	}
	text := RenderTiming(rs)
	for _, frag := range []string{"789 s", "214 s", "25.7 s", "373 static", "1,190", "Minstr/s", "median [Q1–Q3] of 5"} {
		if !strings.Contains(text, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
}

// benchSink keeps the fake row's allocations on the heap.
var benchSink []byte

func TestMeasureSizesThenRepeats(t *testing.T) {
	// A fake clock that only the body advances: 1µs per op while the
	// runner sizes and warms the row, then a scripted cost per op for
	// each timed run.
	var clock time.Time
	repCost := []time.Duration{3 * time.Microsecond, time.Microsecond, 4 * time.Microsecond, time.Microsecond, 5 * time.Microsecond}
	var calls []int
	row := BenchRow{Name: "Fake", Setup: func() (Fixture, error) {
		return Fixture{BodyBytes: 9, Run: func(n int) (int, error) {
			cost := time.Microsecond
			if k := len(calls) - 7; k >= 0 {
				cost = repCost[k]
			}
			calls = append(calls, n)
			clock = clock.Add(time.Duration(n) * cost)
			for i := 0; i < n; i++ {
				benchSink = make([]byte, 64)
			}
			return 7 * n, nil
		}}, nil
	}}
	r, err := measure(row, func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}
	// Sizing grows n 100x at a time until a run fills half of
	// benchRunTime (10ms): 1, 100, then 10,000 ops, run until the row
	// has run for benchWarmTime (50ms), then five timed runs.
	want := []int{1, 100, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000, 10_000}
	if len(calls) != len(want) {
		t.Fatalf("runs of %v ops, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("runs of %v ops, want %v", calls, want)
		}
	}
	if r.Name != "Fake" || r.Reps != benchReps || r.N != 10_000 || r.BodyBytes != 9 {
		t.Errorf("result %+v", r)
	}
	// The five runs cost 3, 1, 4, 1 and 5 µs per op.
	if want := (Spread{Median: 3000, Q1: 1000, Q3: 4000}); r.NsPerOp != want {
		t.Errorf("ns/op %+v, want %+v", r.NsPerOp, want)
	}
	if want := 7 * 1e9 / 3000.0; r.StepsPerSec != want {
		t.Errorf("steps/s %v, want %v", r.StepsPerSec, want)
	}
	if r.AllocsPerOp != 1 || r.BytesPerOp != 64 {
		t.Errorf("%d allocs and %d bytes per op, want 1 and 64", r.AllocsPerOp, r.BytesPerOp)
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
