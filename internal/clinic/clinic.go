// Package clinic implements the Malware Clinic Test of the paper's
// §IV-D and §VI-E: before a vaccine ships, it is injected into a test
// environment running the benign-software suite, and any interference
// with normal program behaviour disqualifies it ("If it affects the
// normal usage, it will be discarded").
//
// Interference is detected by differential analysis: each benign
// program runs once in a clean environment and again in the vaccinated
// one; if the two API traces fail to align completely, or the program's
// exit status changes, the vaccine is rejected. A program reruns only
// when the vaccine's install changed something its clean run read: the
// emulator is deterministic, so any other rerun would repeat the clean
// run exactly.
package clinic

import (
	"fmt"
	"sync"

	"autovac/internal/alignment"
	"autovac/internal/deploy"
	"autovac/internal/emu"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// Rejection explains why a vaccine failed the clinic test.
type Rejection struct {
	// Vaccine is the rejected vaccine's ID.
	Vaccine string
	// Program is the benign program it interfered with.
	Program string
	// Reason describes the interference.
	Reason string
}

// String renders the rejection. A vaccine that never deployed
// interfered with no program, so it renders as a deployment failure.
func (r Rejection) String() string {
	if r.Program == "" {
		return fmt.Sprintf("%s: %s", r.Vaccine, r.Reason)
	}
	return fmt.Sprintf("%s interferes with %s: %s", r.Vaccine, r.Program, r.Reason)
}

// Report is the clinic-test outcome.
type Report struct {
	// Passed are the vaccines that did not disturb any benign program.
	Passed []vaccine.Vaccine
	// Rejected are the disqualified vaccines with their evidence.
	Rejected []Rejection
	// ProgramsTested is the size of the benign suite exercised.
	ProgramsTested int
	// Runs counts the vaccinated benign executions made. A (vaccine,
	// program) pair whose install changed nothing the program's
	// baseline read passes without a run.
	Runs int
}

// Config parameterizes a clinic run.
type Config struct {
	// Seed drives the emulated executions.
	Seed uint64
	// MaxSteps bounds each benign execution.
	MaxSteps int
	// Identity is the test machine's identity.
	Identity winenv.HostIdentity
}

// Run executes the clinic test once: it prepares a Suite for benign
// and runs the vaccines through it. Callers that test many vaccine
// sets against one suite keep the Suite instead.
func Run(vaccines []vaccine.Vaccine, benign []*malware.Sample, cfg Config) (*Report, error) {
	s, err := NewSuite(benign, cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(vaccines), nil
}

// Suite is a prepared clinic: the benign programs with their baseline
// traces and read sets, recorded once, and a pool of arenas the
// vaccine tests run in. A Suite is safe for concurrent use.
type Suite struct {
	programs  []*malware.Sample
	baselines []*trace.Trace
	reads     []*winenv.ReadSet
	opts      emu.Options
	arenas    sync.Pool
}

// arena is one prepared benign host: a fresh environment with the
// benign suite's files and keys, and a base snapshot of that state
// held open for its whole life. It belongs to one goroutine at a time.
type arena struct {
	env  *winenv.Env
	base *winenv.Snapshot
	// affected is testOne's list of the programs a vaccine must run.
	affected []int
}

// NewSuite prepares the clinic for a benign suite: it records each
// program's baseline trace, and everything the program read, against a
// pristine benign host.
func NewSuite(benign []*malware.Sample, cfg Config) (*Suite, error) {
	if cfg.Identity == (winenv.HostIdentity{}) {
		cfg.Identity = winenv.DefaultIdentity()
	}
	s := &Suite{
		programs:  benign,
		baselines: make([]*trace.Trace, len(benign)),
		reads:     make([]*winenv.ReadSet, len(benign)),
		opts:      emu.Options{Seed: cfg.Seed, MaxSteps: cfg.MaxSteps},
	}
	s.arenas.New = func() any {
		env := winenv.New(cfg.Identity)
		malware.PrepareBenignEnv(env)
		return &arena{env: env, base: env.Snapshot()}
	}
	a := s.arenas.Get().(*arena)
	for i, b := range benign {
		s.reads[i] = a.env.RecordReads()
		tr, err := emu.Run(b.Program, a.env, s.opts)
		a.env.StopReads()
		a.env.Reset(a.base)
		if err != nil {
			return nil, fmt.Errorf("clinic: baseline %s: %w", b.Name(), err)
		}
		s.baselines[i] = tr
	}
	s.arenas.Put(a)
	return s, nil
}

// Run tests every candidate vaccine: each is deployed (direct
// injection or daemon, per its delivery class) into an arena that then
// runs the benign programs the install can affect. Vaccines are tested
// individually so one bad vaccine cannot shadow another.
func (s *Suite) Run(vaccines []vaccine.Vaccine) *Report {
	rep := &Report{ProgramsTested: len(s.programs)}
	a := s.arenas.Get().(*arena)
	for i := range vaccines {
		rej, runs := s.testOne(a, &vaccines[i])
		rep.Runs += runs
		if rej != nil {
			rep.Rejected = append(rep.Rejected, *rej)
		} else {
			rep.Passed = append(rep.Passed, vaccines[i])
		}
	}
	// A test that panics never gets here, so its half-rewound arena is
	// dropped rather than pooled.
	s.arenas.Put(a)
	return rep
}

// testOne deploys a single vaccine into the arena and runs, from the
// freshly vaccinated state, each program whose baseline read something
// the install changed, returning the rejection and the number of runs
// made. Every other program would repeat its baseline and pass. The
// arena rewinds to a snapshot taken right after deployment between
// programs, and to its base once the vaccine is done.
func (s *Suite) testOne(a *arena, v *vaccine.Vaccine) (*Rejection, int) {
	if len(s.programs) == 0 {
		return nil, 0
	}
	env := a.env
	if err := deploy.NewDaemon(env, s.opts.Seed).Install(*v); err != nil {
		env.Reset(a.base)
		return &Rejection{Vaccine: v.ID, Reason: fmt.Sprintf("deployment failed: %v", err)}, 0
	}
	// Program runs journal into the base snapshot too, so what the
	// install changed is read off it before any program runs.
	a.affected = a.affected[:0]
	for i, rs := range s.reads {
		if a.base.Affects(rs) {
			a.affected = append(a.affected, i)
		}
	}
	var rej *Rejection
	runs := 0
	if len(a.affected) > 0 {
		vaccinated := env.Snapshot()
		for _, i := range a.affected {
			b := s.programs[i]
			tr, err := emu.Run(b.Program, env, s.opts)
			env.Reset(vaccinated)
			runs++
			if err != nil {
				rej = &Rejection{Vaccine: v.ID, Program: b.Name(), Reason: err.Error()}
				break
			}
			if reason := compare(s.baselines[i], tr); reason != "" {
				rej = &Rejection{Vaccine: v.ID, Program: b.Name(), Reason: reason}
				break
			}
		}
		vaccinated.Close()
	}
	env.Reset(a.base)
	return rej, runs
}

// compare decides whether a vaccinated run deviates from the baseline.
func compare(base, got *trace.Trace) string {
	if base.Exit != got.Exit {
		return fmt.Sprintf("exit changed: %v -> %v", base.Exit, got.Exit)
	}
	if alignment.SameContexts(got.Calls, base.Calls) {
		return ""
	}
	d := alignment.AlignTraces(got, base)
	if !d.Empty() {
		detail := ""
		if len(d.DeltaN) > 0 {
			detail = fmt.Sprintf("; lost %s", d.DeltaN[0].API)
		} else if len(d.DeltaM) > 0 {
			detail = fmt.Sprintf("; gained %s", d.DeltaM[0].API)
		}
		return fmt.Sprintf("trace diverged (Δ=%d/%d%s)", len(d.DeltaM), len(d.DeltaN), detail)
	}
	return ""
}
