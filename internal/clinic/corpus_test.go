package clinic_test

import (
	"reflect"
	"testing"

	"autovac/internal/clinic"
	"autovac/internal/core"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// TestSuiteMatchesReferenceOnCorpus sends the Phase-II vaccines of a
// seeded Table-II corpus, and of NetCorpus samples analysed with their
// C2 scenario, through Suite.Run and through the fresh-host reference.
// The pipelines carry no exclusiveness index, so candidates that
// collide with benign identifiers reach the clinic and exercise its
// rejection paths.
func TestSuiteMatchesReferenceOnCorpus(t *testing.T) {
	const seed = 1
	gen := malware.NewGenerator(seed)
	tableII, err := gen.Corpus(200)
	if err != nil {
		t.Fatal(err)
	}
	netSamples, scenario, err := gen.NetCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	var vaccines []vaccine.Vaccine
	for _, run := range []struct {
		p       *core.Pipeline
		samples []*malware.Sample
	}{
		{core.New(core.Config{Seed: seed}), tableII},
		{core.New(core.Config{Seed: seed, C2: scenario}), netSamples},
	} {
		for _, s := range run.samples {
			res, err := run.p.Analyze(s)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			vaccines = append(vaccines, res.Vaccines...)
		}
	}

	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	cfg := clinic.Config{Seed: seed, Identity: winenv.DefaultIdentity()}
	ref, err := clinic.ReferenceRun(vaccines, benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := clinic.NewSuite(benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := suite.Run(vaccines)
	if got, want := clinic.Summarize(rep), clinic.Summarize(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("Suite.Run disagrees with the reference:\n got %+v\nwant %+v", got, want)
	}
	domains := 0
	for _, v := range vaccines {
		if v.Resource == winenv.KindDomain {
			domains++
		}
	}
	if len(ref.Rejected) == 0 || domains == 0 {
		t.Errorf("corpus too tame to prove much: %d vaccines, %d domain, %d rejected", len(vaccines), domains, len(ref.Rejected))
	}
	t.Logf("%d vaccines (%d domain), %d rejected; %d of %d (vaccine, program) pairs run",
		len(vaccines), domains, len(ref.Rejected), rep.Runs, len(vaccines)*len(benign))
}
