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
		{"record-steps", Options{Seed: 7, RecordSteps: true}},
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
