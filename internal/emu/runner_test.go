package emu

import (
	"encoding/json"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// hotLoop builds an untainted pure-compute loop: the steady-state shape
// the predecoded dispatch and sparse shadows are optimised for.
func hotLoop(iters int) *isa.Program {
	b := isa.NewBuilder("hot-loop")
	b.Mov(isa.R(isa.ECX), isa.Imm(uint32(iters)))
	b.Label("loop")
	b.Sub(isa.R(isa.ECX), isa.Imm(1))
	b.Jnz("loop")
	b.Halt()
	return b.MustBuild()
}

func traceJSON(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunnerByteIdentity checks that pooled re-execution is
// indistinguishable from one-shot execution, with and without step
// recording: run N and run N+1 through one Runner must serialize
// identically, and both must match a fresh emulator on a fresh
// environment.
func TestRunnerByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Seed: 7}},
		{"record-steps", Options{Seed: 7, Profile: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := mutexChecker("!RunnerId")
			r, err := NewRunner(prog, winenv.New(winenv.DefaultIdentity()))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			tr1, err := r.Run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tr2, err := r.Run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			oneShot, err := Run(prog, winenv.New(winenv.DefaultIdentity()), tc.opts)
			if err != nil {
				t.Fatal(err)
			}

			j1, j2, j3 := traceJSON(t, tr1), traceJSON(t, tr2), traceJSON(t, oneShot)
			if j1 != j2 {
				t.Error("pooled run N+1 diverged from run N")
			}
			if j1 != j3 {
				t.Error("pooled run diverged from one-shot execution")
			}
			// tr1 must still be intact after tr2 was produced and after
			// Close: traces never alias pooled emulator state.
			r.Close()
			if traceJSON(t, tr1) != j1 {
				t.Error("earlier trace mutated by later run or Close")
			}
		})
	}
}

// TestRunnerEnvRewound checks that the environment side effects of run N
// are invisible to run N+1.
func TestRunnerEnvRewound(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	r, err := NewRunner(mutexChecker("!Rewind"), env)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		tr, err := r.Run(Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// On a rewound host the marker never pre-exists, so every run
		// takes the clean-host path and creates it afresh.
		if tr.Exit != trace.ExitHalt {
			t.Fatalf("run %d: exit = %v (fault %q), want halt", i, tr.Exit, tr.Fault)
		}
		if got := len(tr.CallsTo("CreateMutexA")); got != 1 {
			t.Fatalf("run %d: CreateMutexA calls = %d (env state leaked)", i, got)
		}
	}
}

// TestRunnerSteadyStateAllocFree pins the perf contract from the issue:
// an untainted steady-state step loop through a pooled Runner performs
// zero allocations per step. The per-run budget covers the handful of
// fixed-cost objects a run legitimately produces (the trace header and
// its source table), not anything proportional to the step count.
func TestRunnerSteadyStateAllocFree(t *testing.T) {
	const iters = 20000 // ~40k steps per run
	r, err := NewRunner(hotLoop(iters), winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Warm-up run builds the CPU, the memory image, and pool entries.
	tr, err := r.Run(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Exit != trace.ExitHalt {
		t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
	}
	steps := tr.StepCount

	perRun := testing.AllocsPerRun(10, func() {
		if _, err := r.Run(Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const runBudget = 24
	if perRun > runBudget {
		t.Errorf("steady-state run allocated %.0f objects (budget %d)", perRun, runBudget)
	}
	if perStep := perRun / float64(steps); perStep >= 0.001 {
		t.Errorf("allocs per step = %.4f over %d steps, want 0", perStep, steps)
	}
}

// taintWriter stores a labelled API's tainted result into .data and
// onto the stack, so every run borrows a shadow page for each.
func taintWriter() *isa.Program {
	b := isa.NewBuilder("taint-writer")
	b.RData("marker", "!ShadowProbe")
	b.Buf("slot", 16)
	b.CallAPI("OpenMutexA", isa.Sym("marker"))
	b.Mov(isa.MemSym("slot"), isa.R(isa.EAX))
	b.Push(isa.R(isa.EAX))
	b.Pop(isa.R(isa.ECX))
	b.Halt()
	return b.MustBuild()
}

// TestOneShotRunSteadyStateBudget pins what a one-shot Run with a nil
// Registry allocates once warm: it shares the standard registry instead
// of rebuilding ~70 API specs (the rebuild alone is ~150 objects), and
// its one API call allocates no argument slice, no recording copy of
// the identifier and no per-byte provenance (the run makes 27 objects;
// 39 before those cuts).
func TestOneShotRunSteadyStateBudget(t *testing.T) {
	prog := taintWriter()
	env := winenv.New(winenv.DefaultIdentity())
	run := func() {
		tr, err := Run(prog, env, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Exit != trace.ExitHalt {
			t.Fatalf("exit = %v (fault %q)", tr.Exit, tr.Fault)
		}
	}
	run()
	const budget = 32
	if n := testing.AllocsPerRun(20, run); n > budget {
		t.Errorf("one-shot run allocated %.0f objects (budget %d)", n, budget)
	}
}

// TestStepAccessArenaGrowth records more step accesses than
// accessChunkSize holds, so the arena crosses every chunk size from
// firstAccessChunk up. Each step's records stay capacity-capped (an
// append copies instead of overwriting the next step's), and a pooled
// run still serialises like a one-shot run.
func TestStepAccessArenaGrowth(t *testing.T) {
	prog := hotLoop(4000)
	opts := Options{Seed: 3, Profile: true}
	c, err := New(prog, winenv.New(winenv.DefaultIdentity()), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Execute()
	if got := cap(c.accessArena); got != accessChunkSize {
		t.Errorf("last chunk holds %d records, want %d", got, accessChunkSize)
	}
	c.Release()
	total := 0
	for _, st := range tr.Steps {
		total += len(st.Reads) + len(st.Writes)
		if cap(st.Reads) != len(st.Reads) || cap(st.Writes) != len(st.Writes) {
			t.Fatalf("step %d: reads %d/%d, writes %d/%d (len/cap)",
				st.Index, len(st.Reads), cap(st.Reads), len(st.Writes), cap(st.Writes))
		}
	}
	if grown := 2*accessChunkSize - firstAccessChunk; total <= grown {
		t.Fatalf("run recorded %d accesses, want more than %d", total, grown)
	}

	before := traceJSON(t, tr)
	for i := range tr.Steps {
		st := &tr.Steps[i]
		_ = append(st.Reads, trace.Access{Value: 0xDEAD})
		_ = append(st.Writes, trace.Access{Value: 0xBEEF})
	}
	if traceJSON(t, tr) != before {
		t.Error("appending to one step's records changed another step's")
	}

	r, err := NewRunner(prog, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for run := 0; run < 2; run++ {
		pooled, err := r.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if traceJSON(t, pooled) != before {
			t.Fatalf("pooled run %d diverged from the one-shot run", run)
		}
	}
}

// TestRunnerRecycle checks the recycle contract: a run that appends into
// a recycled call log serializes like a one-shot run and reuses the
// log's storage, the recycled trace gives its log up, and a run that
// makes no call still returns a nil log while the spare waits for the
// next run that does.
func TestRunnerRecycle(t *testing.T) {
	// The calls are behind a branch that is taken unless inverted, so
	// one program runs with calls or without.
	b := isa.NewBuilder("recycle-probe")
	b.RData("marker", "!Recycle")
	b.Mov(isa.R(isa.EAX), isa.Imm(0))
	b.Test(isa.R(isa.EAX), isa.R(isa.EAX))
	b.Jz("done")
	b.CallAPI("OpenMutexA", isa.Sym("marker"))
	b.CallAPI("CreateMutexA", isa.Sym("marker"))
	b.CallAPI("Sleep", isa.Imm(10))
	b.Label("done")
	b.Halt()
	prog := b.MustBuild()
	calls := Options{Seed: 5, InvertBranches: []int{2}}
	mutated := Options{Seed: 5, InvertBranches: []int{2}, Mutations: []Mutation{{
		API: "OpenMutexA", CallerPC: -1, Mode: ForceSuccess,
	}}}
	noCalls := Options{Seed: 5}

	r, err := NewRunner(prog, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	run := func(opts Options) *trace.Trace {
		t.Helper()
		tr, err := r.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	oneShot := func(opts Options) string {
		t.Helper()
		tr, err := Run(prog, winenv.New(winenv.DefaultIdentity()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return traceJSON(t, tr)
	}

	prev := run(calls)
	if len(prev.Calls) != 3 {
		t.Fatalf("inverted run made %d calls, want 3", len(prev.Calls))
	}
	// Three calls fit the log's first allocation, so every run that
	// makes calls appends into this storage.
	storage := &prev.Calls[0]
	for i, opts := range []Options{mutated, calls, noCalls, mutated, calls} {
		r.Recycle(prev)
		if prev.Calls != nil {
			t.Fatalf("run %d: the recycled trace kept its call log", i)
		}
		tr := run(opts)
		if got, want := traceJSON(t, tr), oneShot(opts); got != want {
			t.Fatalf("run %d: recycled run diverged from one-shot:\n got %s\nwant %s", i, got, want)
		}
		if len(opts.InvertBranches) == 0 {
			if tr.Calls != nil {
				t.Fatalf("run %d made no call but returned a non-nil log", i)
			}
		} else if &tr.Calls[0] != storage {
			t.Fatalf("run %d did not append into the recycled log", i)
		}
		prev = tr
	}
}
