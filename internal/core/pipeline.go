// Package core implements AUTOVAC's three-phase pipeline (paper Fig. 1):
//
//	Phase-I  Candidate Selection — profile the sample under dynamic
//	         taint analysis and keep the resource-API occurrences whose
//	         results reach a branch predicate (§III).
//	Phase-II Vaccine Generation — exclusiveness analysis against the
//	         benign index, impact analysis by API-result mutation and
//	         trace differential alignment, determinism analysis with
//	         backward slicing, and the malware clinic test (§IV).
//	Phase-III Delivery — direct injection and vaccine-daemon deployment
//	         (§V, implemented in package deploy).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"autovac/internal/alignment"
	"autovac/internal/c2"
	"autovac/internal/clinic"
	"autovac/internal/deploy"
	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/exclusive"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/static"
	"autovac/internal/taint"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// Default execution budgets. Phase-I mirrors the paper's 1-minute
// profiling budget; the BDR evaluation re-runs for the 5-minute
// equivalent (§VI-E).
const (
	DefaultPhase1Steps = 50_000
	DefaultBDRSteps    = 250_000
)

// Config parameterizes a pipeline.
type Config struct {
	// Seed drives every emulated execution deterministically.
	Seed uint64
	// Phase1Steps bounds the profiling run (0 = DefaultPhase1Steps).
	Phase1Steps int
	// BDRSteps bounds the vaccine-effect runs (0 = DefaultBDRSteps).
	BDRSteps int
	// Identity is the analysis machine.
	Identity winenv.HostIdentity
	// Index is the benign-resource index for exclusiveness analysis;
	// nil skips the exclusiveness filter.
	Index *exclusive.Index
	// Benign is the clinic-test suite; nil skips the clinic test.
	Benign []*malware.Sample
	// C2 attaches a pseudo-C2 scenario to every emulated execution and
	// switches the API registry to winapi.StandardC2, so network
	// identifiers (C2 hosts, DGA names, killswitch domains) become
	// candidate vaccine material. Nil keeps the legacy passive network
	// and unlabelled network APIs — byte-identical legacy traces.
	C2 *c2.Scenario
}

// Pipeline runs AUTOVAC end to end. Its configuration is immutable
// after New; the only state it builds later is the clinic suite, once
// and under a sync.Once, and a pool of prepared analysis hosts that
// Phase-I, Phase-II's mutated re-executions and its slice-sanity
// replays rewind instead of rebuilding. One Pipeline may analyse many
// samples concurrently (see AnalyzeCorpus).
type Pipeline struct {
	cfg Config
	// registry is the shared labelled API set; it is read-only after
	// construction and reused across every emulated execution.
	registry *winapi.Registry

	// hosts pools prepared analysis hosts (see host).
	hosts sync.Pool

	// clinic is the benign suite with its baselines, built by the first
	// Phase2 with vaccines to test. Baselines depend only on the suite,
	// seed and identity, which never change, so every sample shares
	// them. clinicErr is sticky.
	clinicOnce sync.Once
	clinic     *clinic.Suite
	clinicErr  error
}

// New creates a pipeline, applying defaults.
func New(cfg Config) *Pipeline {
	if cfg.Phase1Steps <= 0 {
		cfg.Phase1Steps = DefaultPhase1Steps
	}
	if cfg.BDRSteps <= 0 {
		cfg.BDRSteps = DefaultBDRSteps
	}
	if cfg.Identity == (winenv.HostIdentity{}) {
		cfg.Identity = winenv.DefaultIdentity()
	}
	reg := winapi.Standard()
	if cfg.C2 != nil {
		reg = winapi.StandardC2()
	}
	p := &Pipeline{cfg: cfg, registry: reg}
	p.hosts.New = func() any {
		env := p.newEnv()
		return &host{env: env, base: env.Snapshot()}
	}
	return p
}

// newEnv builds one analysis environment, attaching a fresh responder
// for the configured scenario (responders are stateful and single-env).
func (p *Pipeline) newEnv() *winenv.Env {
	env := winenv.New(p.cfg.Identity)
	if p.cfg.C2 != nil {
		env.Net().SetResponder(p.cfg.C2.NewResponder())
	}
	return env
}

// host is one prepared analysis machine: a newEnv environment and a
// base snapshot of that state held open for its whole life, so a use
// ends by rewinding it rather than building a new one. It belongs to
// one goroutine at a time.
type host struct {
	env  *winenv.Env
	base *winenv.Snapshot
}

// getHost takes a prepared host from the pool.
func (p *Pipeline) getHost() *host { return p.hosts.Get().(*host) }

// putHost rewinds h to its base and returns it to the pool. It is
// called on normal returns only, never deferred: a panicking analysis
// drops its host, whose state may be half-rewound.
func (p *Pipeline) putHost(h *host) {
	h.env.Reset(h.base)
	p.hosts.Put(h)
}

// Candidate is one resource-API occurrence that can affect the
// malware's control flow — Phase-I's output.
type Candidate struct {
	// Call is the observed API call.
	Call trace.APICall
	// Source is the taint label the predicate consumed.
	Source taint.Source
}

// Profile is the result of Phase-I for one sample.
type Profile struct {
	// Sample is the analyzed sample.
	Sample *malware.Sample
	// Normal is the natural-execution trace (with instruction steps).
	Normal *trace.Trace
	// Candidates are the resource occurrences feeding predicates,
	// deduplicated by (API, caller-PC, identifier).
	Candidates []Candidate
	// ResourceOccurrences counts all resource-API occurrences.
	ResourceOccurrences int
	// SensitiveOccurrences counts occurrences whose labels reached a
	// predicate (the 80.3% statistic of §VI-B).
	SensitiveOccurrences int
}

// HasVaccineCandidates reports whether Phase-I flagged the sample as
// "possibly has a vaccine".
func (p *Profile) HasVaccineCandidates() bool { return len(p.Candidates) > 0 }

// Phase1 profiles a sample: one natural execution under taint analysis,
// with instruction steps recorded for the later backward slicing. It is
// the pipeline's only profiling run.
func (p *Pipeline) Phase1(s *malware.Sample) (*Profile, error) {
	h := p.getHost()
	tr, err := emu.Run(s.Program, h.env, emu.Options{
		Seed:     p.cfg.Seed,
		MaxSteps: p.cfg.Phase1Steps,
		Profile:  true,
		Registry: p.registry,
	})
	p.putHost(h)
	if err != nil {
		return nil, fmt.Errorf("core: phase1 %s: %w", s.Name(), err)
	}

	// Labels that reached any predicate.
	hot := make(map[taint.Source]bool)
	for _, hit := range tr.Predicates {
		for _, src := range hit.Sources {
			hot[src] = true
		}
	}

	prof := &Profile{Sample: s, Normal: tr}
	seen := make(map[string]bool)
	for _, c := range tr.Calls {
		if c.ResourceKind == "" {
			continue
		}
		prof.ResourceOccurrences++
		sensitive := false
		var hotSrc taint.Source
		for _, src := range c.TaintSources {
			if hot[src] {
				sensitive = true
				hotSrc = src
				break
			}
		}
		if !sensitive {
			continue
		}
		prof.SensitiveOccurrences++
		key := fmt.Sprintf("%s|%d|%s", c.API, c.CallerPC, strings.ToLower(c.Identifier))
		if seen[key] {
			continue
		}
		seen[key] = true
		prof.Candidates = append(prof.Candidates, Candidate{Call: c, Source: hotSrc})
	}
	return prof, nil
}

// provablyResourceFree runs the Phase-0 triage pass: true means the
// recovered API surface (including hash-resolved indirect calls)
// provably contains no resource-labelled API, so no execution can
// produce a resource call, let alone a candidate. Any analysis error,
// a ⊤ surface, or a panic answers false — triage only ever skips work
// it can prove pointless.
func (p *Pipeline) provablyResourceFree(s *malware.Sample) (free bool) {
	defer func() {
		if recover() != nil {
			free = false
		}
	}()
	ok, err := static.SurfaceResourceFree(s.Program, p.registry)
	return err == nil && ok
}

// Rejection explains why a candidate produced no vaccine.
type Rejection struct {
	Candidate Candidate
	// Stage is "exclusiveness", "impact", "determinism", or "clinic".
	Stage string
	// Reason is human-readable.
	Reason string
}

// Result is the outcome of Phase-II for one sample.
type Result struct {
	Profile *Profile
	// Vaccines are the generated, validated vaccines.
	Vaccines []vaccine.Vaccine
	// Rejected explains the dropped candidates.
	Rejected []Rejection
	// ClinicRejections holds clinic-test failures (when enabled).
	ClinicRejections []clinic.Rejection
}

// phase2Arena holds the pooled execution state shared by every
// candidate of one Phase-II pass: a Runner on a pooled host that
// rewinds the sample's mutated re-executions instead of rebuilding CPU
// and environment per candidate, the natural trace's alignment keys
// that every mutated run is classified against, and a second pooled
// host for the slice sanity replays (Replay rewinds it itself), taken
// by the first algorithm-deterministic candidate.
type phase2Arena struct {
	runHost *host
	runner  *emu.Runner
	keysN   []alignment.Key
	replay  *host
}

// release closes the runner and returns the arena's hosts to the pool.
func (a *phase2Arena) release(p *Pipeline) {
	if a.runner != nil {
		a.runner.Close()
		p.putHost(a.runHost)
	}
	if a.replay != nil {
		p.putHost(a.replay)
	}
}

// Phase2 generates vaccines from a profile: exclusiveness → impact →
// determinism, then the clinic test.
func (p *Pipeline) Phase2(prof *Profile) (*Result, error) {
	res := &Result{Profile: prof}
	merged := make(map[string]*vaccine.Vaccine)
	var order []string

	arena := &phase2Arena{}
	if len(prof.Candidates) > 0 {
		h := p.getHost()
		runner, err := emu.NewRunner(prof.Sample.Program, h.env)
		if err != nil {
			p.putHost(h)
			return nil, fmt.Errorf("core: phase2 %s: %w", prof.Sample.Name(), err)
		}
		arena.runHost, arena.runner = h, runner
		arena.keysN = alignment.KeysOf(prof.Normal.Calls)
	}

	for _, cand := range prof.Candidates {
		v, rej := p.generateOne(prof, cand, arena)
		if rej != nil {
			res.Rejected = append(res.Rejected, *rej)
			continue
		}
		// Merge vaccines that target the same resource (a file checked,
		// created, and written yields one vaccine with combined ops, as
		// in Table III's OperType column).
		key := v.Resource.String() + "|" + strings.ToLower(keyIdent(v))
		if prev, ok := merged[key]; ok {
			mergeVaccine(prev, v)
			continue
		}
		merged[key] = v
		order = append(order, key)
	}
	arena.release(p)

	for i, key := range order {
		v := merged[key]
		v.ID = fmt.Sprintf("%s/%s/%d", prof.Sample.Name(), v.Resource, i)
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		res.Vaccines = append(res.Vaccines, *v)
	}

	// Malware clinic test (§IV-D).
	if len(p.cfg.Benign) > 0 && len(res.Vaccines) > 0 {
		suite, err := p.clinicSuite()
		if err != nil {
			return nil, fmt.Errorf("core: clinic: %w", err)
		}
		rep := suite.Run(res.Vaccines)
		res.Vaccines = rep.Passed
		res.ClinicRejections = rep.Rejected
	}
	return res, nil
}

// clinicSuite returns the pipeline's clinic suite, recording the
// benign baselines on first use.
func (p *Pipeline) clinicSuite() (*clinic.Suite, error) {
	p.clinicOnce.Do(func() {
		// Stays set if NewSuite panics: the Once will not run again,
		// and later samples must get an error, not a nil suite.
		p.clinicErr = errors.New("benign baselines panicked")
		p.clinic, p.clinicErr = clinic.NewSuite(p.cfg.Benign, clinic.Config{
			Seed:     p.cfg.Seed,
			Identity: p.cfg.Identity,
		})
	})
	return p.clinic, p.clinicErr
}

// keyIdent returns the merge key component for a vaccine's identifier.
func keyIdent(v *vaccine.Vaccine) string {
	if v.Class == determinism.PartialStatic {
		return v.Pattern
	}
	return v.Identifier
}

// mergeVaccine folds src into dst: ops union, best effect wins (and
// brings its polarity along).
func mergeVaccine(dst, src *vaccine.Vaccine) {
	dst.Op = mergeOps(dst.Op, src.Op)
	for _, e := range src.Effects {
		if !hasEffect(dst.Effects, e) {
			dst.Effects = append(dst.Effects, e)
		}
	}
	sort.Slice(dst.Effects, func(i, j int) bool { return dst.Effects[i] < dst.Effects[j] })
	if src.Effect < dst.Effect { // smaller enum = stronger effect
		dst.Effect = src.Effect
		dst.Polarity = src.Polarity
		dst.API = src.API
		dst.CallerPC = src.CallerPC
	}
}

func hasEffect(es []impact.Effect, e impact.Effect) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// mergeOps unions comma-separated op lists preserving order.
func mergeOps(a, b string) string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range strings.Split(a+","+b, ",") {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return strings.Join(out, ",")
}

// generateOne runs exclusiveness, impact, and determinism analysis for
// a single candidate, drawing executions from the shared Phase-II arena.
func (p *Pipeline) generateOne(prof *Profile, cand Candidate, arena *phase2Arena) (*vaccine.Vaccine, *Rejection) {
	call := cand.Call
	kind, err := winenv.ParseKind(call.ResourceKind)
	if err != nil {
		return nil, &Rejection{Candidate: cand, Stage: "impact", Reason: err.Error()}
	}
	if call.Identifier == "" {
		// Stale handles and similar resolution failures leave no
		// identifier to build a vaccine on.
		return nil, &Rejection{Candidate: cand, Stage: "impact", Reason: "unresolved resource identifier"}
	}

	// Step-I: exclusiveness analysis (§IV-A).
	if p.cfg.Index != nil && call.Identifier != "" {
		if !p.cfg.Index.Exclusive(kind, call.Identifier) {
			user, _ := p.cfg.Index.BenignUser(kind, call.Identifier)
			return nil, &Rejection{
				Candidate: cand, Stage: "exclusiveness",
				Reason: fmt.Sprintf("identifier used by benign software (%s)", user),
			}
		}
	}

	// Step-II: impact analysis (§IV-B). Try presence-simulating
	// mutations first (a marker is the safest vaccine), then blocking.
	modes := mutationModes(call.Op)
	var best *impact.Result
	var bestMode emu.MutationMode
	for _, mode := range modes {
		mutated, err := arena.runner.Run(emu.Options{
			Seed:     p.cfg.Seed,
			MaxSteps: p.cfg.Phase1Steps,
			Registry: p.registry,
			Mutations: []emu.Mutation{{
				API: call.API, CallerPC: call.CallerPC,
				Identifier: call.Identifier, Mode: mode,
			}},
		})
		if err != nil {
			return nil, &Rejection{Candidate: cand, Stage: "impact", Reason: err.Error()}
		}
		r := impact.ClassifyKeyed(mutated, prof.Normal, arena.keysN)
		// The diff holds copies of the calls, so the next run may
		// reuse the mutated trace's call log.
		arena.runner.Recycle(mutated)
		if r.Immunizing() {
			best = &r
			bestMode = mode
			break
		}
	}
	if best == nil {
		return nil, &Rejection{Candidate: cand, Stage: "impact", Reason: "no immunization effect"}
	}

	// Step-III: determinism analysis (§IV-C).
	det := determinism.Classify(call, prof.Normal.Sources)
	v := &vaccine.Vaccine{
		Sample:     prof.Sample.Name(),
		Family:     string(prof.Sample.Spec.Family),
		Category:   string(prof.Sample.Spec.Category),
		Resource:   kind,
		Identifier: call.Identifier,
		Class:      det.Class,
		Op:         call.Op,
		API:        call.API,
		CallerPC:   call.CallerPC,
		Effect:     best.Primary,
		Effects:    best.Effects,
		Polarity:   polarityOf(bestMode),
	}
	switch det.Class {
	case determinism.NonDeterministic:
		return nil, &Rejection{
			Candidate: cand, Stage: "determinism",
			Reason: fmt.Sprintf("identifier is non-deterministic (%v)", det.RandomAPIs),
		}
	case determinism.Static:
		v.Delivery = vaccine.DirectInjection
	case determinism.PartialStatic:
		v.Pattern = det.Pattern
		v.Delivery = vaccine.VaccineDaemon
		if p.cfg.Index != nil && !p.cfg.Index.ExclusivePattern(kind, det.Pattern) {
			return nil, &Rejection{
				Candidate: cand, Stage: "exclusiveness",
				Reason: fmt.Sprintf("pattern %q overlaps benign identifiers", det.Pattern),
			}
		}
	case determinism.AlgorithmDeterministic:
		sl, err := determinism.Extract(prof.Sample.Program, prof.Normal, call.Seq)
		if err != nil {
			return nil, &Rejection{Candidate: cand, Stage: "determinism", Reason: err.Error()}
		}
		// Static replayability gate: a slice that could loop, fault, or
		// touch host resources must never reach a pack.
		if verr := static.VerifySlice(sl.Program, sl.ResultAddr, p.registry); verr != nil {
			return nil, &Rejection{Candidate: cand, Stage: "determinism", Reason: verr.Error()}
		}
		// Sanity: the slice replays to the observed identifier on the
		// analysis machine.
		if arena.replay == nil {
			arena.replay = p.getHost()
		}
		got, err := sl.Replay(arena.replay.env, p.cfg.Seed)
		if err != nil || !strings.EqualFold(got, call.Identifier) {
			return nil, &Rejection{
				Candidate: cand, Stage: "determinism",
				Reason: fmt.Sprintf("slice replay mismatch (%q vs %q, err=%v)", got, call.Identifier, err),
			}
		}
		v.Slice = sl
		v.Delivery = vaccine.VaccineDaemon
	}
	return v, nil
}

// mutationModes returns the mutation directions to try for an observed
// operation, presence-simulation first.
func mutationModes(op string) []emu.MutationMode {
	switch op {
	case winenv.OpOpen.String(), winenv.OpQuery.String(), winenv.OpRead.String():
		return []emu.MutationMode{emu.ForceSuccess, emu.ForceFailure}
	case winenv.OpCreate.String():
		return []emu.MutationMode{emu.ForceAlreadyExists, emu.ForceFailure}
	default:
		return []emu.MutationMode{emu.ForceFailure}
	}
}

// polarityOf maps the winning mutation direction to vaccine polarity.
func polarityOf(m emu.MutationMode) vaccine.Polarity {
	if m == emu.ForceFailure {
		return vaccine.BlockAccess
	}
	return vaccine.SimulatePresence
}

// Analyze runs Phase-I and Phase-II for one sample.
func (p *Pipeline) Analyze(s *malware.Sample) (*Result, error) {
	prof, err := p.Phase1(s)
	if err != nil {
		return nil, err
	}
	if !prof.HasVaccineCandidates() {
		return &Result{Profile: prof}, nil
	}
	return p.Phase2(prof)
}

// MeasureBDR deploys a vaccine and measures the Behavior Decreasing
// Ratio of §VI-E with the extended execution budget.
func (p *Pipeline) MeasureBDR(s *malware.Sample, v *vaccine.Vaccine) (float64, error) {
	normal, err := emu.Run(s.Program, p.newEnv(), emu.Options{
		Seed: p.cfg.Seed, MaxSteps: p.cfg.BDRSteps, Registry: p.registry,
	})
	if err != nil {
		return 0, fmt.Errorf("core: bdr normal run: %w", err)
	}
	env := p.newEnv()
	d := p.NewDaemonFor(env)
	if err := d.Install(*v); err != nil {
		return 0, fmt.Errorf("core: bdr deploy: %w", err)
	}
	deployed, err := emu.Run(s.Program, env, emu.Options{
		Seed: p.cfg.Seed, MaxSteps: p.cfg.BDRSteps, Registry: p.registry,
	})
	if err != nil {
		return 0, fmt.Errorf("core: bdr deployed run: %w", err)
	}
	return impact.BDR(normal, deployed), nil
}

// NewDaemonFor creates a vaccine daemon bound to an end-host
// environment, sharing the pipeline's seed.
func (p *Pipeline) NewDaemonFor(env *winenv.Env) *deploy.Daemon {
	return deploy.NewDaemon(env, p.cfg.Seed)
}

// Registry returns the API registry the pipeline analyses against.
func (p *Pipeline) Registry() *winapi.Registry { return p.registry }

// Seed returns the pipeline's deterministic seed.
func (p *Pipeline) Seed() uint64 { return p.cfg.Seed }

// Identity returns the analysis machine identity.
func (p *Pipeline) Identity() winenv.HostIdentity { return p.cfg.Identity }

// Scenario returns the attached pseudo-C2 scenario (nil when running
// against the legacy passive network).
func (p *Pipeline) Scenario() *c2.Scenario { return p.cfg.C2 }
