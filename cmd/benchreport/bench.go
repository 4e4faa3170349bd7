package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/experiment"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// benchSeed matches the repository's bench_test.go so the in-process
// measurements are comparable with `go test -bench` output.
const benchSeed = 42

// benchBaseline is a seed-tree measurement (commit 1f48890's emulator,
// measured on the commit immediately before the predecode/shadow/arena
// layers landed; Intel Xeon @ 2.10GHz, go1.22). The -bench mode prints
// before/after against these so a speedup claim is attached to numbers,
// not adjectives.
type benchBaseline struct {
	NsPerOp     float64
	AllocsPerOp float64
}

var baselines = map[string]benchBaseline{
	"Emulator":                 {NsPerOp: 834_000, AllocsPerOp: 534},
	"EmulatorWithSteps":        {NsPerOp: 899_600, AllocsPerOp: 724},
	"SliceReplay":              {NsPerOp: 427_500, AllocsPerOp: 275},
	"Phase1CandidateSelection": {NsPerOp: 63_770_000, AllocsPerOp: 30_271},
}

// benchRow is one measurement in BENCH_emu.json.
type benchRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`

	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
}

// benchReport is the machine-readable BENCH_emu.json document.
type benchReport struct {
	GOOS     string     `json:"goos"`
	GOARCH   string     `json:"goarch"`
	Go       string     `json:"go"`
	Seed     int64      `json:"seed"`
	Baseline string     `json:"baseline"`
	Results  []benchRow `json:"results"`
}

// runBench executes the emulator benchmark trajectory in-process and
// writes the machine-readable report to outPath.
func runBench(outPath string) error {
	zeus, err := malware.NewGenerator(benchSeed).FamilySample(malware.Zeus)
	if err != nil {
		return err
	}

	rep := &benchReport{
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		Go:       runtime.Version(),
		Seed:     benchSeed,
		Baseline: "seed emulator (pre predecode/sparse-shadow/arena), Xeon 2.10GHz",
	}

	measure := func(name string, steps *int, fn func(b *testing.B)) {
		// testing.Benchmark calls fn once per trial N and reports the
		// last trial, so the step count restarts with every call.
		r := testing.Benchmark(func(b *testing.B) {
			*steps = 0
			fn(b)
		})
		row := benchRow{
			Name:        name,
			N:           r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if *steps > 0 && r.T > 0 {
			row.StepsPerSec = float64(*steps) / r.T.Seconds()
		}
		if base, ok := baselines[name]; ok && row.NsPerOp > 0 {
			row.BaselineNsPerOp = base.NsPerOp
			row.BaselineAllocsPerOp = base.AllocsPerOp
			row.Speedup = base.NsPerOp / row.NsPerOp
		}
		rep.Results = append(rep.Results, row)
	}

	var steps int

	// One-shot execution, fresh environment clone per run — the exact
	// shape of BenchmarkEmulator in bench_test.go.
	env := winenv.New(winenv.DefaultIdentity())
	measure("Emulator", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := emu.Run(zeus.Program, env.Clone(), emu.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			if tr.Exit == trace.ExitFault {
				b.Fatal(tr.Fault)
			}
			steps += tr.StepCount
		}
	})

	// Instruction-level recording, the cost backward slicing pays.
	measure("EmulatorWithSteps", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := emu.Run(zeus.Program, env.Clone(),
				emu.Options{Seed: benchSeed, RecordSteps: true})
			if err != nil {
				b.Fatal(err)
			}
			steps += tr.StepCount
		}
	})

	// Pooled arena re-execution — Phase-II's steady state. No seed
	// baseline: the Runner did not exist in the seed tree.
	runner, err := emu.NewRunner(zeus.Program, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		return err
	}
	measure("EmulatorPooled", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := runner.Run(emu.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			steps += tr.StepCount
		}
	})
	runner.Close()

	// The stalling-evasion workload (tight untainted loop + timing
	// check): API-free code, so this row is the step loop's dispatch
	// floor with API dispatch out of the picture.
	stallSpec := &malware.Spec{Name: "bench-stalling", Category: malware.Trojan,
		Behaviors: []malware.Behavior{
			{Kind: malware.BehStalling, Count: 20_000},
			{Kind: malware.BehMarkerMutex, ID: "BENCH-STALL-MUTEX"},
		}}
	stallRunner, err := emu.NewRunner(malware.MustEmit(stallSpec), winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		return err
	}
	measure("EmulatorStalling", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := stallRunner.Run(emu.Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			if tr.Exit == trace.ExitFault {
				b.Fatal(tr.Fault)
			}
			steps += tr.StepCount
		}
	})
	stallRunner.Close()

	// Slice replay per algorithm-deterministic vaccine.
	spec := &malware.Spec{Name: "bench-replay", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: benchSeed, RecordSteps: true})
	if err != nil {
		return err
	}
	sl, err := determinism.Extract(prog, tr, tr.CallsTo("CreateMutexA")[0].Seq)
	if err != nil {
		return err
	}
	replayEnv := winenv.New(winenv.DefaultIdentity())
	measure("SliceReplay", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sl.Replay(replayEnv, benchSeed); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Phase-I candidate selection over the 60-sample bench corpus —
	// end-to-end profiling throughput, the number every corpus sweep
	// multiplies. Setup construction is outside the timed region.
	setup, err := experiment.NewSetup(benchSeed, 60)
	if err != nil {
		return err
	}
	measure("Phase1CandidateSelection", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := setup.RunPhase1(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The malware clinic on five generated vaccines: the 41 benign
	// programs run once per vaccine on the rewound benign host, so API
	// dispatch dominates. The same body as the repository's
	// BenchmarkClinicFalsePositiveTest.
	_, profiles, err := setup.RunPhase1()
	if err != nil {
		return err
	}
	gen, err := setup.RunPhase2(profiles)
	if err != nil {
		return err
	}
	vs := gen.Vaccines
	if len(vs) > 5 {
		vs = vs[:5]
	}
	measure("ClinicFalsePositiveTest", &steps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := setup.FalsePositiveTest(vs)
			if err != nil {
				b.Fatal(err)
			}
			if rep.ProgramsTested == 0 {
				b.Fatal("no programs tested")
			}
		}
	})

	// Human-readable table alongside the JSON.
	fmt.Printf("emulator bench trajectory (seed %d, %s/%s, %s)\n",
		benchSeed, rep.GOOS, rep.GOARCH, rep.Go)
	fmt.Printf("%-26s %14s %12s %14s %10s\n", "benchmark", "ns/op", "allocs/op", "steps/sec", "speedup")
	for _, r := range rep.Results {
		speed, sps := "-", "-"
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%.2fx", r.Speedup)
		}
		if r.StepsPerSec > 0 {
			sps = fmt.Sprintf("%.2fM", r.StepsPerSec/1e6)
		}
		fmt.Printf("%-26s %14.0f %12d %14s %10s\n", r.Name, r.NsPerOp, r.AllocsPerOp, sps, speed)
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
