package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"autovac/internal/experiment"
)

// benchReport is the machine-readable BENCH_emu.json document.
type benchReport struct {
	GOOS     string                   `json:"goos"`
	GOARCH   string                   `json:"goarch"`
	Go       string                   `json:"go"`
	Seed     int64                    `json:"seed"`
	Baseline string                   `json:"baseline"`
	Results  []experiment.BenchResult `json:"results"`
}

// runBench measures every row of the bench table, prints them, and
// writes the machine-readable report to outPath.
func runBench(outPath string) error {
	rs, err := experiment.RunBench(experiment.BenchRows())
	if err != nil {
		return err
	}
	rep := &benchReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		Seed:     experiment.BenchSeed,
		Baseline: "seed emulator (pre predecode/sparse-shadow/arena), Xeon 2.10GHz; binary codec rows against the JSON rows",
		Results:  rs,
	}

	fmt.Printf("bench rows (seed %d, %s/%s, %s; ns/op is median [Q1–Q3] of %d runs)\n",
		rep.Seed, rep.GOOS, rep.GOARCH, rep.Go, rs[0].Reps)
	fmt.Printf("%-36s %-32s %10s %10s %9s %8s %7s\n",
		"benchmark", "ns/op", "allocs/op", "bytes/op", "steps/s", "speedup", "shrink")
	for _, r := range rs {
		sps, speed, shrink := "-", "-", "-"
		if r.StepsPerSec > 0 {
			sps = fmt.Sprintf("%.2fM", r.StepsPerSec/1e6)
		}
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%.2fx", r.Speedup)
		}
		if r.Shrink > 0 {
			shrink = fmt.Sprintf("%.2fx", r.Shrink)
		}
		ns := fmt.Sprintf("%.0f [%.0f–%.0f]", r.NsPerOp.Median, r.NsPerOp.Q1, r.NsPerOp.Q3)
		fmt.Printf("%-36s %-32s %10d %10d %9s %8s %7s\n",
			r.Name, ns, r.AllocsPerOp, r.BytesPerOp, sps, speed, shrink)
	}
	fmt.Printf("(baseline: %s)\n\n", rep.Baseline)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
