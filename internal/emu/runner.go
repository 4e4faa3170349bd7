package emu

import (
	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// Runner is a reusable execution arena for repeated runs of one program
// against one environment — Phase-II's shape: impact analysis re-executes
// a sample once per candidate mutation. The first Run builds the CPU
// (predecode is already cached on the program); every later Run rewinds
// the environment to its snapshot and the CPU to its initial state
// instead of rebuilding either, so the per-run cost is a memory reset
// rather than allocation churn.
type Runner struct {
	prog *isa.Program
	env  *winenv.Env
	snap *winenv.Snapshot
	cpu  *CPU
}

// NewRunner prepares an arena around prog and env. The environment is
// snapshotted immediately: every Run starts from the state env had at
// this call. Close releases the snapshot and pooled buffers.
func NewRunner(prog *isa.Program, env *winenv.Env) (*Runner, error) {
	if _, err := decodedFor(prog); err != nil {
		return nil, err
	}
	return &Runner{prog: prog, env: env, snap: env.Snapshot()}, nil
}

// Env returns the runner's environment (its state is whatever the last
// Run left behind, until the next Run rewinds it).
func (r *Runner) Env() *winenv.Env { return r.env }

// Run executes the program under opts and returns the trace. The
// returned trace remains valid after later Runs and after Close, unless
// it is handed back with Recycle.
func (r *Runner) Run(opts Options) (*trace.Trace, error) {
	if r.cpu == nil {
		c, err := New(r.prog, r.env, opts)
		if err != nil {
			return nil, err
		}
		r.cpu = c
	} else {
		r.env.Reset(r.snap)
		r.cpu.resetFor(opts)
	}
	return r.cpu.Execute(), nil
}

// Recycle hands the call log of tr, a trace this runner returned, back
// to the runner: the next Run that makes a call appends its calls into
// that storage instead of allocating a new log. tr.Calls is set to nil;
// the caller must hold no other reference into it, though copies of
// its elements stay valid (a call's fields are never written after the
// run that logged it, and recycling reuses only the array).
func (r *Runner) Recycle(tr *trace.Trace) {
	if r.cpu != nil && cap(tr.Calls) > 0 {
		// Clear the old records so the array does not keep their
		// arguments and strings alive.
		clear(tr.Calls)
		r.cpu.spareCalls = tr.Calls[:0]
	}
	tr.Calls = nil
}

// Close releases the environment snapshot (leaving the environment in
// its last post-run state) and returns pooled buffers.
func (r *Runner) Close() {
	if r.snap != nil {
		r.snap.Close()
		r.snap = nil
	}
	if r.cpu != nil {
		r.cpu.Release()
		r.cpu = nil
	}
}
