// Command perfbench is the repository's benchmark. It runs one named
// workload in-process through the modules' public entry points, checks
// every output, and prints one JSON result line:
//
//	perfbench --workload corpus-clinic --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced passes, and prints the per-layer metrics and the
// tracing overhead. See NOTES.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's client count: each client waits for
// its operation's result before it takes the next one.
const clients = 2

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minOps is the fewest operations a measured phase records, and the
// fewest calls a traced phase records of every span that ran, so that
// ten lie beyond each p99.
const minOps = 1000

// maxPhase bounds one measured phase when minOps is slow to reach.
const maxPhase = 60 * time.Second

// defaultSeed is the seed whose corpus digests are pinned in
// expected.go.
const defaultSeed = 1

// pinned returns a corpus workload's pinned vaccine digest for seed, or
// "" when none is pinned.
func pinned(workload string, seed uint64) string {
	if seed != defaultSeed {
		return ""
	}
	return expectedDigest[workload]
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(ctx context.Context, seed uint64, dir string) (bench, error){
	"corpus-clinic": func(ctx context.Context, seed uint64, dir string) (bench, error) {
		return setupCorpus(ctx, corpusConfig{tableII: 600, clinic: true}, seed, dir, pinned("corpus-clinic", seed))
	},
	"corpus-evasive": func(ctx context.Context, seed uint64, dir string) (bench, error) {
		return setupCorpus(ctx, corpusConfig{tableII: 1000, hashPerBand: 100}, seed, dir, pinned("corpus-evasive", seed))
	},
	"fleet-join": func(ctx context.Context, seed uint64, dir string) (bench, error) {
		return setupFleet(ctx, fleetConfig{hosts: 200}, seed, dir)
	},
	"fleet-waves": func(ctx context.Context, seed uint64, dir string) (bench, error) {
		return setupFleet(ctx, fleetConfig{waves: true, hosts: 50}, seed, dir)
	},
}

// bench is one set-up workload. A pass is its fixed, deterministic unit
// of work; pass k's preparation (fresh registries, a cold-joined fleet)
// is not timed.
type bench interface {
	prepare(ctx context.Context, k int) error
	pass(ctx context.Context, k int, t *tracer) (*passResult, error)
	close() error
}

// passResult is what one pass measured and checked.
type passResult struct {
	timed     time.Duration   // the pass's measured time
	lat       []time.Duration // each operation's latency
	attempted int
	failures  []string
	hosts     int   // hosts that synced, for wire bytes per host
	wireBytes int64 // bytes on the hosts' connections
	// waves is each fleet-waves wave's duration, from the publish to
	// the last host's delta sync.
	waves []time.Duration
}

func (p *passResult) fail(msgs ...string) { p.failures = append(p.failures, msgs...) }

// closedLoop runs fn(0..n-1) on the benchmark's clients; each client
// takes the next index as soon as its previous call returns.
func closedLoop(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// phase is one measured set of passes, traced or not.
type phase struct {
	t       *tracer // nil for an untraced phase
	passes  []*passResult
	timed   time.Duration
	ops     int
	peakRSS []float64 // each pass's peak resident set, in bytes
	mem     memDelta
	spans   []span
	counts  map[string]int64
}

// done reports whether the phase has seconds of measured time, minOps
// operations and, when traced, minOps calls of every span that ran.
func (ph *phase) done(seconds float64) bool {
	return ph.timed.Seconds() >= seconds && ph.ops >= minOps &&
		(ph.t == nil || ph.t.fewestCalls() >= minOps)
}

// measure runs whole passes until every phase is done, one phase per
// tracer (nil for an untraced one). The passes take turns between the
// phases, so they all see the same host conditions. Each pass starts
// from a collected heap returned to the OS, so its resident-set peak
// and runtime counts cover that pass alone.
func measure(ctx context.Context, b bench, seconds float64, tracers ...*tracer) ([]*phase, error) {
	phases := make([]*phase, len(tracers))
	for i, t := range tracers {
		phases[i] = &phase{t: t}
	}
	done := func() bool {
		for _, ph := range phases {
			if !ph.done(seconds) {
				return false
			}
		}
		return true
	}
	limit := maxPhase * time.Duration(len(phases))
	start := time.Now()
	for k := 0; !done(); k++ {
		if time.Since(start) > limit {
			return nil, fmt.Errorf("not done after %v: each phase needs %gs measured, %d operations and %d calls of every span",
				limit, seconds, minOps, minOps)
		}
		ph := phases[k%len(phases)]
		if err := b.prepare(ctx, k); err != nil {
			return nil, fmt.Errorf("preparing pass %d: %w", k, err)
		}
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil && k == 0 {
			fmt.Fprintln(os.Stderr, "perfbench: peak RSS covers the whole process:", err)
		}
		m0 := readMem()
		pr, err := b.pass(ctx, k, ph.t)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", k, err)
		}
		ph.mem = ph.mem.add(readMem().sub(m0))
		ph.peakRSS = append(ph.peakRSS, float64(peakRSS()))
		fmt.Fprintf(os.Stderr, "perfbench: pass %d (traced %v): %d ops in %.3fs (%.1f/s)\n",
			k, ph.t != nil, len(pr.lat), pr.timed.Seconds(), float64(len(pr.lat))/pr.timed.Seconds())
		ph.passes = append(ph.passes, pr)
		ph.timed += pr.timed
		ph.ops += len(pr.lat)
	}
	for _, ph := range phases {
		if ph.t != nil {
			ph.spans, ph.counts = ph.t.take()
		}
	}
	return phases, nil
}

// e2e computes the end-to-end metrics of a phase.
func (ph *phase) e2e() (map[string]float64, error) {
	var lat []time.Duration
	var rates []float64
	for _, p := range ph.passes {
		lat = append(lat, p.lat...)
		rates = append(rates, float64(len(p.lat))/p.timed.Seconds())
	}
	sorted := sortedCopy(lat)
	p99, err := tailQuantile(sorted, 0.99)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"ops_per_s":   median(rates),
		"op_p50_ms":   ms(quantile(sorted, 0.50)),
		"op_p99_ms":   ms(p99),
		"peak_rss_mb": median(ph.peakRSS) / (1 << 20),
	}, nil
}

func (ph *phase) totals() (attempted, failed int) {
	for _, p := range ph.passes {
		attempted += p.attempted
		failed += len(p.failures)
	}
	return attempted, failed
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: corpus-clinic, corpus-evasive, fleet-join or fleet-waves")
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per phase")
		traced  = flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
	)
	flag.Parse()
	res, err := run(context.Background(), *name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, seconds float64, traced bool) (*result, error) {
	setup, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	base, err := os.MkdirTemp(filepath.Join(".bench_build"), "state-")
	if err != nil {
		return nil, fmt.Errorf("state directory (run from the repository root): %w", err)
	}
	defer os.RemoveAll(base)

	// Set up setupReps times; the last set-up is the one measured.
	var b bench
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each set-up starts from the same collected heap
		t0 := time.Now()
		b, err = setup(ctx, seed, filepath.Join(base, fmt.Sprint(r)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()

	tracers := []*tracer{nil}
	if traced {
		tracers = append(tracers, newTracer())
	}
	phases, err := measure(ctx, b, seconds, tracers...)
	if err != nil {
		return nil, err
	}
	plain := phases[0]
	res := &result{Metrics: make(map[string]metric)}
	if !traced {
		e, err := plain.e2e()
		if err != nil {
			return nil, err
		}
		e["setup_s"] = median(setups)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e[m.name], m.unit}
		}
	} else {
		layers, err := perLayer(plain, phases[1])
		if err != nil {
			return nil, err
		}
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	}
	for _, ph := range phases {
		a, f := ph.totals()
		res.Attempted += a
		res.Failed += f
		for _, p := range ph.passes {
			for i, msg := range p.failures {
				if i == 3 {
					fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(p.failures)-i)
					break
				}
				fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
