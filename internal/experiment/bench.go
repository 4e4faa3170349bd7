package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"autovac/internal/core"
	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/impact"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// BenchSeed seeds every bench row's fixtures.
const BenchSeed = 42

// A BenchRow is one named micro-measurement. Each row is written once:
// `go test -bench` (bench_test.go), `benchreport -bench` and the §VI-F
// table (MeasureTiming) all time the body its Setup returns.
type BenchRow struct {
	// Name is the row's `go test -bench` name without the Benchmark
	// prefix; a slash separates a benchmark from its sub-benchmark.
	Name string
	// Setup builds the row's fixtures outside the timer.
	Setup func() (Fixture, error)
}

// A Fixture is a row that is set up and ready to time.
type Fixture struct {
	// Run does n operations and returns the emulated steps they took
	// (0 for rows that emulate nothing).
	Run func(n int) (steps int, err error)
	// BodyBytes is the wire size of the body a codec encode row makes.
	BodyBytes int
}

// BenchRows returns the bench table: the emulator data path, the
// §VI-F generation and deployment costs, daemon hook cost by pattern
// count, and the delta codec at a first-sync and an incremental pack
// size.
func BenchRows() []BenchRow {
	rows := []BenchRow{
		// A run without profiling: no taint labels, no step log.
		{"Emulator", oneShot(emu.Options{Seed: BenchSeed})},
		// The profiling run Phase-I makes: taint labels and the
		// instruction-level log backward slicing walks.
		{"EmulatorWithSteps", oneShot(emu.Options{Seed: BenchSeed, Profile: true})},
		// Re-execution through the Runner arena: Phase-II's steady state.
		{"EmulatorPooled", func() (Fixture, error) {
			zeus, err := zeusSample()
			if err != nil {
				return Fixture{}, err
			}
			return pooled(zeus.Program)
		}},
		// A stalling loop plus timing check: API-free code, so this is
		// the step loop's dispatch floor with API dispatch out of the
		// picture.
		{"EmulatorStalling", func() (Fixture, error) {
			return pooled(malware.MustEmit(&malware.Spec{Name: "bench-stalling", Category: malware.Trojan,
				Behaviors: []malware.Behavior{
					{Kind: malware.BehStalling, Count: 20_000},
					{Kind: malware.BehMarkerMutex, ID: "BENCH-STALL-MUTEX"},
				}}))
		}},
		// Regenerating one algorithm-deterministic identifier on an end
		// host (the paper: 25.7 s per vaccine). Replay rewinds the host
		// itself, so it is built once.
		{"SliceReplay", func() (Fixture, error) {
			_, _, sl, err := algoSlice()
			env := winenv.New(winenv.DefaultIdentity())
			return Fixture{Run: each(func() error {
				_, err := sl.Replay(env, BenchSeed)
				return err
			})}, err
		}},
		// Phase-I candidate selection over the 60-sample bench corpus:
		// the profiling throughput every corpus sweep multiplies.
		{"Phase1CandidateSelection", func() (Fixture, error) {
			s, err := NewSetup(BenchSeed, 60)
			if err != nil {
				return Fixture{}, err
			}
			return Fixture{Run: each(func() error {
				st, _, err := s.RunPhase1()
				if err == nil && st.Occurrences == 0 {
					err = fmt.Errorf("no occurrences")
				}
				return err
			})}, nil
		}},
		// The clinic on five generated vaccines: the 41 benign
		// baselines plus the programs each install touches.
		{"ClinicFalsePositiveTest", func() (Fixture, error) {
			s, err := NewSetup(BenchSeed, 60)
			if err != nil {
				return Fixture{}, err
			}
			_, profiles, err := s.RunPhase1()
			if err != nil {
				return Fixture{}, err
			}
			gen, err := s.RunPhase2(profiles)
			if err != nil {
				return Fixture{}, err
			}
			vs := gen.Vaccines[:min(5, len(gen.Vaccines))]
			return Fixture{Run: each(func() error {
				rep, err := s.FalsePositiveTest(vs)
				if err == nil && rep.ProgramsTested == 0 {
					err = fmt.Errorf("no programs tested")
				}
				return err
			})}, nil
		}},
		// §VI-F.1: Phase-I and Phase-II of one sample, Zeus, end to end
		// (the paper: 789 s per sample).
		{"VaccineGeneration", func() (Fixture, error) {
			zeus, err := zeusSample()
			if err != nil {
				return Fixture{}, err
			}
			benign, err := malware.BenignCorpus()
			if err != nil {
				return Fixture{}, err
			}
			ix, err := exclusive.BuildIndex(benign, BenchSeed)
			p := core.New(core.Config{Seed: BenchSeed, Index: ix})
			return Fixture{Run: each(func() error {
				res, err := p.Analyze(zeus)
				if err == nil && len(res.Vaccines) == 0 {
					err = fmt.Errorf("no vaccines")
				}
				return err
			})}, err
		}},
		// Slice extraction for one algorithm-deterministic identifier
		// (the paper: 214 s on average).
		{"BackwardSlicing", func() (Fixture, error) {
			prog, tr, _, err := algoSlice()
			if err != nil {
				return Fixture{}, err
			}
			seq := tr.CallsTo("CreateMutexA")[0].Seq
			return Fixture{Run: each(func() error {
				_, err := determinism.Extract(prog, tr, seq)
				return err
			})}, nil
		}},
		// One mutation case: a mutated re-execution plus the trace
		// differential (the paper: 2-3 minutes).
		{"ImpactAnalysis", func() (Fixture, error) {
			zeus, err := zeusSample()
			if err != nil {
				return Fixture{}, err
			}
			normal, err := emu.Run(zeus.Program, winenv.New(winenv.DefaultIdentity()), emu.Options{Seed: BenchSeed})
			mutate := emu.Options{Seed: BenchSeed, Mutations: []emu.Mutation{{
				API: "OpenMutexA", CallerPC: -1, Identifier: "_AVIRA_2109", Mode: emu.ForceSuccess,
			}}}
			return Fixture{Run: traced(func() (*trace.Trace, error) {
				mutated, err := emu.Run(zeus.Program, winenv.New(winenv.DefaultIdentity()), mutate)
				if err == nil && !impact.Classify(mutated, normal).Immunizing() {
					err = fmt.Errorf("not immunizing")
				}
				return mutated, err
			})}, err
		}},
		// §VI-F.2: installing the paper's 373 static vaccines on a fresh
		// host (the paper: 34 s).
		{"DirectInjection", func() (Fixture, error) {
			vs := staticVaccines(373)
			p := core.New(core.Config{Seed: BenchSeed})
			return Fixture{Run: each(func() error {
				d := p.NewDaemonFor(winenv.New(winenv.DefaultIdentity()))
				for i := range vs {
					if err := d.Install(vs[i]); err != nil {
						return err
					}
				}
				return nil
			})}, nil
		}},
	}
	// The daemon hook's cost per benign same-namespace operation as the
	// partial-static patterns grow: none is the bare host, 119 the
	// paper's count (<4.5% overhead), 1,190 its 10x extrapolation (<12%).
	for _, n := range []int{0, 1, 10, 119, 1190} {
		rows = append(rows, hookRow(n))
	}
	for _, n := range []int{64, 8} {
		rows = append(rows, codecRows(n)...)
	}
	return rows
}

// zeusSample generates the Zeus family sample at the bench seed.
func zeusSample() (*malware.Sample, error) {
	return malware.NewGenerator(BenchSeed).FamilySample(malware.Zeus)
}

// oneShot times Zeus run with opts on a fresh environment per run, the
// seed tree's shape.
func oneShot(opts emu.Options) func() (Fixture, error) {
	return func() (Fixture, error) {
		zeus, err := zeusSample()
		return Fixture{Run: traced(func() (*trace.Trace, error) {
			return emu.Run(zeus.Program, winenv.New(winenv.DefaultIdentity()), opts)
		})}, err
	}
}

// algoSlice runs a program that builds an algorithm-deterministic mutex
// name with step recording, and extracts that name's backward slice.
func algoSlice() (*isa.Program, *trace.Trace, *determinism.Slice, error) {
	prog := malware.MustEmit(&malware.Spec{Name: "bench-algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}})
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: BenchSeed, Profile: true})
	if err != nil {
		return nil, nil, nil, err
	}
	sl, err := determinism.Extract(prog, tr, tr.CallsTo("CreateMutexA")[0].Seq)
	return prog, tr, sl, err
}

// pooled times re-execution of prog through one Runner.
func pooled(prog *isa.Program) (Fixture, error) {
	r, err := emu.NewRunner(prog, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		return Fixture{}, err
	}
	return Fixture{Run: traced(func() (*trace.Trace, error) {
		return r.Run(emu.Options{Seed: BenchSeed})
	})}, nil
}

// hookRow times a benign mutex create-and-remove on a host whose daemon
// holds n partial-static patterns for the same namespace.
func hookRow(n int) BenchRow {
	name := "DaemonHookOverhead/none"
	if n > 0 {
		name = fmt.Sprintf("DaemonHookOverhead/vaccines-%d", n)
	}
	return BenchRow{name, func() (Fixture, error) {
		env := winenv.New(winenv.DefaultIdentity())
		if n > 0 {
			d := core.New(core.Config{Seed: BenchSeed}).NewDaemonFor(env)
			for i := 0; i < n; i++ {
				if err := d.Install(vaccine.Vaccine{
					ID: fmt.Sprintf("bench/pat/%d", i), Sample: "bench",
					Resource: winenv.KindMutex, Pattern: fmt.Sprintf("WORMFAM%04d-*", i),
					Class: determinism.PartialStatic, Op: "create", API: "CreateMutexA",
					Effect: impact.Full, Polarity: vaccine.SimulatePresence,
					Delivery: vaccine.VaccineDaemon,
				}); err != nil {
					return Fixture{}, err
				}
			}
		}
		req := winenv.Request{Kind: winenv.KindMutex, Op: winenv.OpCreate,
			Name: "benign-app-instance-mutex", Principal: "app"}
		return Fixture{Run: each(func() error {
			if env.Do(req).Intercepted {
				return fmt.Errorf("benign op intercepted")
			}
			env.Remove(winenv.KindMutex, req.Name)
			return nil
		})}, nil
	}}
}

// codecRows returns the delta-codec rows over an n-vaccine pack: encode
// and decode, for JSON in the form the server writes and for the binary
// codec.
func codecRows(n int) []BenchRow {
	var rows []BenchRow
	for _, c := range []struct {
		name string
		enc  func(*fleet.DeltaResponse) ([]byte, error)
		dec  func([]byte) (*fleet.DeltaResponse, error)
	}{
		{"json", encodeDeltaJSON, fleet.DecodeDeltaJSON},
		{"binary", fleet.EncodeDeltaBinary, fleet.DecodeDeltaBinary},
	} {
		name := func(op string) string { return fmt.Sprintf("DeltaCodec/%s/%s/%dvaccines", op, c.name, n) }
		rows = append(rows,
			BenchRow{name("encode"), func() (Fixture, error) {
				d, body, err := codecPack(n, c.enc)
				return Fixture{BodyBytes: len(body), Run: each(func() error {
					_, err := c.enc(d)
					return err
				})}, err
			}},
			BenchRow{name("decode"), func() (Fixture, error) {
				_, body, err := codecPack(n, c.enc)
				return Fixture{Run: each(func() error {
					d, err := c.dec(body)
					if err == nil && len(d.Vaccines) != n {
						err = fmt.Errorf("decoded %d of %d vaccines", len(d.Vaccines), n)
					}
					return err
				})}, err
			}})
	}
	return rows
}

// codecPack publishes n static vaccines and returns the full delta and
// its body under enc.
func codecPack(n int, enc func(*fleet.DeltaResponse) ([]byte, error)) (*fleet.DeltaResponse, []byte, error) {
	reg := fleet.NewRegistry(0)
	reg.SetGenerator("benchreport")
	if _, _, err := reg.Publish(staticVaccines(n)...); err != nil {
		return nil, nil, err
	}
	d := reg.Delta(0)
	body, err := enc(d)
	return d, body, err
}

// encodeDeltaJSON encodes d as the server writes a JSON delta
// (json.Encoder, trailing newline included).
func encodeDeltaJSON(d *fleet.DeltaResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(d)
	return buf.Bytes(), err
}

// staticVaccines builds n distinct static mutex vaccines, the shape the
// control-plane study publishes.
func staticVaccines(n int) []vaccine.Vaccine {
	vs := make([]vaccine.Vaccine, n)
	for i := range vs {
		vs[i] = vaccine.Vaccine{
			ID: fmt.Sprintf("bench/mutex/%d", i), Sample: "bench",
			Resource: winenv.KindMutex, Identifier: fmt.Sprintf("FLEET-BENCH-MARKER-%04d", i),
			Class: determinism.Static, Op: "create", API: "CreateMutexA",
			Effect: impact.Full, Polarity: vaccine.SimulatePresence,
			Delivery: vaccine.DirectInjection,
		}
	}
	return vs
}

// each is a Run that repeats op, which emulates nothing.
func each(op func() error) func(int) (int, error) {
	return func(n int) (int, error) {
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
}

// traced is a Run that repeats an emulation and sums its steps; a run
// that faults fails the row.
func traced(run func() (*trace.Trace, error)) func(int) (int, error) {
	return func(n int) (int, error) {
		steps := 0
		for i := 0; i < n; i++ {
			tr, err := run()
			if err != nil {
				return 0, err
			}
			if tr.Exit == trace.ExitFault {
				return 0, fmt.Errorf("emulation faulted: %v", tr.Fault)
			}
			steps += tr.StepCount
		}
		return steps, nil
	}
}

// BenchResult is one measured row of BENCH_emu.json.
type BenchResult struct {
	Name string `json:"name"`
	// Reps timed runs of N operations each.
	Reps int `json:"reps"`
	N    int `json:"n"`
	// NsPerOp is the median and quartiles of the runs' time per op.
	NsPerOp Spread `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are totals over the timed runs, per op.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// StepsPerSec is the emulated instruction rate at the median.
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
	BodyBytes   int     `json:"body_bytes,omitempty"`

	// The baseline columns (see compare); Speedup is the baseline's
	// ns/op over the median, Shrink its body size over this row's.
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	BaselineBodyBytes   int     `json:"baseline_body_bytes,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	Shrink              float64 `json:"shrink,omitempty"`
}

// benchReps is how many timed runs the runner takes of every row.
const benchReps = 5

// benchRunTime is the wall time the runner sizes one timed run to.
const benchRunTime = 10 * time.Millisecond

// benchWarmTime is the least time a row runs before its timed runs: a
// row's first runs read slow (Phase1CandidateSelection's first took
// 2.5 times its settled time and settled after about 50 ms).
const benchWarmTime = 50 * time.Millisecond

// RunBench measures each row in order (see measure) and fills in the
// baseline columns.
func RunBench(rows []BenchRow) ([]BenchResult, error) {
	out := make([]BenchResult, 0, len(rows))
	for _, row := range rows {
		r, err := measure(row, time.Now)
		if err != nil {
			return nil, fmt.Errorf("experiment: bench %s: %w", row.Name, err)
		}
		out = append(out, r)
	}
	compare(out)
	return out, nil
}

// measure sets row up and times it on the clock now. It grows the op
// count n until one run fills about benchRunTime and keeps running n
// ops until the row has run for benchWarmTime, then times benchReps
// runs of n ops each.
func measure(row BenchRow, now func() time.Time) (BenchResult, error) {
	fx, err := row.Setup()
	if err != nil {
		return BenchResult{}, err
	}
	timed := func(n int) (time.Duration, int, error) {
		start := now()
		steps, err := fx.Run(n)
		return now().Sub(start), steps, err
	}
	n := 1
	for warm := time.Duration(0); ; {
		d, _, err := timed(n)
		if err != nil {
			return BenchResult{}, err
		}
		warm += d
		if d < benchRunTime/2 {
			next := 100 * n
			if d > 0 {
				next = int(1.2 * float64(benchRunTime) / float64(d) * float64(n))
			}
			n = max(n+1, min(next, 100*n))
		} else if warm >= benchWarmTime {
			break
		}
	}

	nsPerOp := make([]float64, benchReps)
	steps := 0
	var before, after runtime.MemStats
	// Start the timed runs from a collected heap, as testing does, so
	// the warm-up's garbage is not charged to them.
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range nsPerOp {
		d, s, err := timed(n)
		if err != nil {
			return BenchResult{}, err
		}
		nsPerOp[i] = float64(d) / float64(n)
		steps += s
	}
	runtime.ReadMemStats(&after)

	ops := uint64(benchReps * n)
	r := BenchResult{
		Name: row.Name, Reps: benchReps, N: n,
		NsPerOp:     spreadOf(nsPerOp),
		AllocsPerOp: int64((after.Mallocs - before.Mallocs) / ops),
		BytesPerOp:  int64((after.TotalAlloc - before.TotalAlloc) / ops),
		BodyBytes:   fx.BodyBytes,
	}
	if steps > 0 && r.NsPerOp.Median > 0 {
		r.StepsPerSec = float64(steps) / float64(ops) * 1e9 / r.NsPerOp.Median
	}
	return r, nil
}

// seedBaselines are the seed tree's figures for the rows it had: its
// emulator at the commit before the predecode/sparse-shadow/arena
// layers landed (1f48890), measured on an Intel Xeon @ 2.10GHz with
// go1.22, so a speedup is attached to numbers, not adjectives.
var seedBaselines = map[string]struct{ ns, allocs float64 }{
	"Emulator":                 {834_000, 534},
	"EmulatorWithSteps":        {899_600, 724},
	"SliceReplay":              {427_500, 275},
	"Phase1CandidateSelection": {63_770_000, 30_271},
}

// compare fills the baseline columns: a row the seed tree had is
// compared with the seed figure, and a binary codec row with the JSON
// row of the same operation and pack size.
func compare(rs []BenchResult) {
	byName := make(map[string]*BenchResult, len(rs))
	for i := range rs {
		byName[rs[i].Name] = &rs[i]
	}
	for i := range rs {
		r := &rs[i]
		if b, ok := seedBaselines[r.Name]; ok {
			r.BaselineNsPerOp, r.BaselineAllocsPerOp = b.ns, b.allocs
		}
		if j := byName[strings.Replace(r.Name, "/binary/", "/json/", 1)]; j != nil && j != r {
			r.BaselineNsPerOp, r.BaselineBodyBytes = j.NsPerOp.Median, j.BodyBytes
			if r.BodyBytes > 0 {
				r.Shrink = float64(j.BodyBytes) / float64(r.BodyBytes)
			}
		}
		if r.BaselineNsPerOp > 0 && r.NsPerOp.Median > 0 {
			r.Speedup = r.BaselineNsPerOp / r.NsPerOp.Median
		}
	}
}
