package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"autovac/internal/clinic"
	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/malware"
	"autovac/internal/static"
	"autovac/internal/vaccine"
)

// corpusConfig sizes one analysis workload.
type corpusConfig struct {
	// tableII is the Generator.Corpus size (Table-II category mix).
	tableII int
	// hashPerBand appends this many samples of each HashResolveCorpus
	// band (hashmtx, hashfile, hashtick); 0 appends none.
	hashPerBand int
	// clinic runs the full benign suite on every sample's vaccines.
	clinic bool
}

// corpusBench analyses a fixed corpus sample by sample and publishes
// each sample's vaccines to a WAL-backed registry. One pass is one walk
// over the corpus; every pass starts from a fresh registry, so every
// publish stores new vaccines and every pass does the same work.
type corpusBench struct {
	stateDir string
	samples  []*malware.Sample
	benign   []*malware.Sample // the clinic suite; nil when the clinic is off
	pipeline *core.Pipeline
	// clinicless is the same pipeline without the clinic suite: the
	// traced run calls its Phase2 and then clinic.Run itself, so the
	// clinic gets its own span.
	clinicless *core.Pipeline

	// reg is the registry of the pass that was prepared last, regPass
	// its pass number (-1 when none is open).
	reg     *fleet.Registry
	regPass int
	// digest is the vaccine digest every pass, traced or not, must
	// reproduce: the pinned one, or else the first pass's.
	digest string
}

// setupCorpus builds a corpus workload. Every pass must reproduce the
// digest want or, when want is empty, the first pass's digest.
func setupCorpus(ctx context.Context, cfg corpusConfig, seed uint64, stateDir, want string) (*corpusBench, error) {
	gen := malware.NewGenerator(int64(seed))
	samples, err := gen.Corpus(cfg.tableII)
	if err != nil {
		return nil, err
	}
	if cfg.hashPerBand > 0 {
		hr, err := gen.HashResolveCorpus(cfg.hashPerBand)
		if err != nil {
			return nil, err
		}
		samples = append(samples, hr...)
	}
	benign, err := malware.BenignCorpus()
	if err != nil {
		return nil, err
	}
	ix, err := exclusive.BuildIndex(benign, seed)
	if err != nil {
		return nil, err
	}
	pcfg := core.Config{Seed: seed, Index: ix}
	b := &corpusBench{stateDir: stateDir, samples: samples, regPass: -1, digest: want}
	b.clinicless = core.New(pcfg)
	if cfg.clinic {
		pcfg.Benign = benign
		b.benign = benign
	}
	b.pipeline = core.New(pcfg)
	if err := b.prepare(ctx, 0); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *corpusBench) passDir(k int) string {
	return filepath.Join(b.stateDir, fmt.Sprintf("registry-%d", k))
}

// prepare opens the fresh registry pass k publishes to.
func (b *corpusBench) prepare(_ context.Context, k int) error {
	if b.regPass == k {
		return nil
	}
	reg, err := fleet.OpenRegistry(b.passDir(k), 0)
	if err != nil {
		return err
	}
	reg.SetGenerator(generator)
	b.reg, b.regPass = reg, k
	return nil
}

// analyze runs AnalyzeCorpus on sample i alone, exactly as a caller
// submitting one sample would, with Phase-0 triage and the static
// prefilter on.
func (b *corpusBench) analyze(ctx context.Context, i int) ([]vaccine.Vaccine, error) {
	results, _, err := b.pipeline.AnalyzeCorpus(ctx, b.samples[i:i+1], core.CorpusOptions{
		Workers: 1, StaticPrefilter: true, StaticTriage: true,
	})
	if err != nil {
		return nil, err
	}
	if results[0] == nil {
		return nil, fmt.Errorf("%s: no result", b.samples[i].Name())
	}
	return results[0].Vaccines, nil
}

// analyzeTraced makes the same calls AnalyzeCorpus makes for one
// sample, in its order (triage, prefilter, Phase-I, Phase-II, clinic),
// each under its own span.
func (b *corpusBench) analyzeTraced(t *tracer, parent int32, i int) ([]vaccine.Vaccine, error) {
	s := b.samples[i]
	req := int64(i)
	reg := b.pipeline.Registry()

	sp := t.start("static.triage", parent, req)
	free, err := static.SurfaceResourceFree(s.Program, reg)
	sp.close()
	t.addCount("static.triage.calls", 1)
	if err == nil && free {
		t.addCount("static.triage.skipped", 1)
		return nil, nil
	}
	sp = t.start("static.prefilter", parent, req)
	may, err := static.MayHaveCandidates(s.Program, reg)
	sp.close()
	t.addCount("static.prefilter.calls", 1)
	if err == nil && !may {
		t.addCount("static.prefilter.filtered", 1)
		return nil, nil
	}

	sp = t.start("core.phase1", parent, req)
	prof, err := b.clinicless.Phase1(s)
	sp.close()
	if err != nil {
		return nil, err
	}
	t.addCount("core.phase1.steps", int64(prof.Normal.StepCount))
	t.addCount("core.phase1.candidates", int64(len(prof.Candidates)))
	if !prof.HasVaccineCandidates() {
		return nil, nil
	}

	sp = t.start("core.phase2", parent, req)
	res, err := b.clinicless.Phase2(prof)
	sp.close()
	if err != nil {
		return nil, err
	}
	t.addCount("core.phase2.vaccines", int64(len(res.Vaccines)))
	for _, rej := range res.Rejected {
		t.addCount("core.phase2.rejected_"+rej.Stage, 1)
	}
	if b.benign == nil || len(res.Vaccines) == 0 {
		return res.Vaccines, nil
	}

	sp = t.start("clinic.run", parent, req)
	rep, err := clinic.Run(res.Vaccines, b.benign, clinic.Config{
		Seed: b.pipeline.Seed(), Identity: b.pipeline.Identity(),
	})
	sp.close()
	if err != nil {
		return nil, err
	}
	t.addCount("clinic.run.vaccines_tested", int64(len(res.Vaccines)))
	t.addCount("clinic.run.rejected", int64(len(rep.Rejected)))
	t.addCount("clinic.run.benign_runs", int64(benignRuns(rep, b.benign)))
	return rep.Passed, nil
}

// benignRuns counts the benign executions a clinic run made: one
// baseline per program, the whole suite for each passed vaccine, and
// the programs up to and including the one that rejected a vaccine.
func benignRuns(rep *clinic.Report, suite []*malware.Sample) int {
	runs := len(suite) * (1 + len(rep.Passed))
	for _, rej := range rep.Rejected {
		for j, s := range suite {
			if s.Name() == rej.Program {
				runs += j + 1
				break
			}
		}
	}
	return runs
}

// pass analyses and publishes every sample once, with the closed loop's
// clients each taking the next sample when their last one is published.
func (b *corpusBench) pass(ctx context.Context, k int, t *tracer) (*passResult, error) {
	if b.regPass != k {
		return nil, fmt.Errorf("pass %d was not prepared", k)
	}
	reg := b.reg
	n := len(b.samples)
	out := make([][]vaccine.Vaccine, n)
	lat := make([]time.Duration, n)
	fails := make([]string, n)

	start := time.Now()
	closedLoop(n, func(i int) {
		t0 := time.Now()
		root := t.start("core.sample", 0, int64(i))
		var vs []vaccine.Vaccine
		var err error
		if t != nil {
			vs, err = b.analyzeTraced(t, root.id(), i)
		} else {
			vs, err = b.analyze(ctx, i)
		}
		if err == nil && len(vs) > 0 {
			sp := t.start("fleet.publish", root.id(), int64(i))
			var stored int
			_, stored, err = reg.Publish(vs...)
			sp.close()
			t.addCount("fleet.publish.vaccines", int64(stored))
			if err == nil && stored != len(vs) {
				err = fmt.Errorf("publish stored %d of %d vaccines", stored, len(vs))
			}
		}
		root.close()
		lat[i] = time.Since(t0)
		if err != nil {
			fails[i] = fmt.Sprintf("%s: %v", b.samples[i].Name(), err)
		}
		out[i] = vs
	})
	timed := time.Since(start)

	pr := &passResult{timed: timed, lat: lat, attempted: n}
	for _, f := range fails {
		if f != "" {
			pr.fail(f)
		}
	}
	published := reg.Count()
	if err := reg.Close(); err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(b.passDir(k))
	if err != nil {
		return nil, err
	}
	t.addCount("fleet.wal.bytes", walBytes)
	if err := os.RemoveAll(b.passDir(k)); err != nil {
		return nil, err
	}
	b.reg, b.regPass = nil, -1

	got := corpusOutput{digest: vaccineDigest(out), vaccines: countVaccines(out), published: published}
	if b.digest == "" {
		b.digest = got.digest
		fmt.Fprintln(os.Stderr, "perfbench: vaccine digest", got.digest)
	}
	pr.fail(checkCorpus(got, b.digest)...)
	return pr, nil
}

func (b *corpusBench) close() error {
	if b.reg != nil {
		if err := b.reg.Close(); err != nil {
			return err
		}
	}
	return os.RemoveAll(b.stateDir)
}

// vaccineDigest is the pack digest over every sample's vaccines. It
// sorts fingerprints, so it does not depend on publish order.
func vaccineDigest(perSample [][]vaccine.Vaccine) string {
	p := vaccine.Pack{Generator: generator}
	for _, vs := range perSample {
		p.Vaccines = append(p.Vaccines, vs...)
	}
	return p.Digest()
}

func countVaccines(perSample [][]vaccine.Vaccine) int {
	n := 0
	for _, vs := range perSample {
		n += len(vs)
	}
	return n
}

// dirBytes totals the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
