package experiment

import (
	"errors"
	"fmt"
	"sort"

	"autovac/internal/clinic"
	"autovac/internal/emu"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// BDRPoint is one vaccine's measured Behavior Decreasing Ratio with its
// effect class — the data behind Figure 4.
type BDRPoint struct {
	VaccineID string
	Sample    string
	Effect    impact.Effect
	BDR       float64
}

// Figure4 measures BDR for the generated vaccines, bucketed by effect
// type (§VI-E, Figure 4). maxPerEffect bounds the number of vaccines
// measured per effect class (0 = no bound). Failures are isolated per
// vaccine: a measurement that errors or panics is joined into the
// returned error while every other vaccine's point is still returned.
func (s *Setup) Figure4(st *GenStats, samplesByName map[string]*malware.Sample, maxPerEffect int) ([]BDRPoint, error) {
	perEffect := make(map[impact.Effect]int)
	var points []BDRPoint
	var failures []error
	for i := range st.Vaccines {
		v := &st.Vaccines[i]
		if maxPerEffect > 0 && perEffect[v.Effect] >= maxPerEffect {
			continue
		}
		sm := samplesByName[v.Sample]
		if sm == nil {
			continue
		}
		var bdr float64
		err := guard(func() error {
			var err error
			bdr, err = s.Pipeline.MeasureBDR(sm, v)
			return err
		})
		if err != nil {
			failures = append(failures, fmt.Errorf("experiment: bdr %s: %w", v.ID, err))
			continue
		}
		perEffect[v.Effect]++
		points = append(points, BDRPoint{
			VaccineID: v.ID, Sample: v.Sample, Effect: v.Effect, BDR: bdr,
		})
	}
	return points, errors.Join(failures...)
}

// BDRSummary summarizes Figure 4 per effect class.
type BDRSummary struct {
	Effect           impact.Effect
	Count            int
	Min, Max, Median float64
}

// SummarizeBDR buckets BDR points by effect.
func SummarizeBDR(points []BDRPoint) []BDRSummary {
	byEffect := make(map[impact.Effect][]float64)
	for _, p := range points {
		byEffect[p.Effect] = append(byEffect[p.Effect], p.BDR)
	}
	var out []BDRSummary
	for _, e := range []impact.Effect{
		impact.Full, impact.TypeI, impact.TypeII, impact.TypeIII, impact.TypeIV,
	} {
		vals := byEffect[e]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		out = append(out, BDRSummary{
			Effect: e,
			Count:  len(vals),
			Min:    vals[0],
			Max:    vals[len(vals)-1],
			Median: vals[len(vals)/2],
		})
	}
	return out
}

// TableVIIRow is one family row of the variant-effectiveness experiment
// (paper Table VII).
type TableVIIRow struct {
	Family      malware.Family
	VaccineN    int
	Types       string
	IdealCases  int
	Verified    int
	SuccessRate float64
}

// TableVII runs the variant experiment: for each of the six families,
// generate vaccines from the canonical sample, then test every vaccine
// against fresh polymorphic variants (paper: 5 variants per family,
// 82% overall success; some variants drop a behaviour, so some
// vaccine×variant pairs fail — exactly like the Zeus variants that no
// longer used sdra64.exe).
// Families are isolated from each other: a family whose analysis or
// variant replay fails (error or panic) is skipped — its failure joined
// into the returned error — while every other family's row is returned.
func (s *Setup) TableVII(variantsPerFamily int, dropProb float64) ([]TableVIIRow, error) {
	var rows []TableVIIRow
	var failures []error
	for _, fam := range malware.Families() {
		var row TableVIIRow
		err := guard(func() error {
			var err error
			row, err = s.tableVIIFamily(fam, variantsPerFamily, dropProb)
			return err
		})
		if err != nil {
			failures = append(failures, fmt.Errorf("experiment: table VII %s: %w", fam, err))
			continue
		}
		rows = append(rows, row)
	}
	return rows, errors.Join(failures...)
}

// tableVIIFamily runs the variant experiment for one family.
func (s *Setup) tableVIIFamily(fam malware.Family, variantsPerFamily int, dropProb float64) (TableVIIRow, error) {
	var row TableVIIRow
	canonical, err := s.Generator.FamilySample(fam)
	if err != nil {
		return row, err
	}
	res, err := s.Pipeline.SafeAnalyze(canonical)
	if err != nil {
		return row, fmt.Errorf("analyze: %w", err)
	}
	variants, err := s.Generator.Variants(canonical, variantsPerFamily, dropProb)
	if err != nil {
		return row, err
	}
	row = TableVIIRow{
		Family:     fam,
		VaccineN:   len(res.Vaccines),
		Types:      vaccineTypes(res.Vaccines),
		IdealCases: len(res.Vaccines) * len(variants),
	}
	for _, variant := range variants {
		// Natural variant behaviour.
		normal, err := emu.Run(variant.Program, winenv.New(s.Pipeline.Identity()),
			emu.Options{Seed: s.Pipeline.Seed()})
		if err != nil {
			return row, err
		}
		for i := range res.Vaccines {
			ok, err := s.vaccineWorksOn(variant, &res.Vaccines[i], normal)
			if err != nil {
				return row, err
			}
			if ok {
				row.Verified++
			}
		}
	}
	if row.IdealCases > 0 {
		row.SuccessRate = float64(row.Verified) / float64(row.IdealCases)
	}
	return row, nil
}

// vaccineWorksOn deploys one vaccine and checks whether the variant's
// behaviour is immunized relative to its own natural run: the
// vaccinated execution must show an immunization effect under the same
// differential classification Phase-II uses.
func (s *Setup) vaccineWorksOn(variant *malware.Sample, v *vaccine.Vaccine, normal *trace.Trace) (bool, error) {
	env := winenv.New(s.Pipeline.Identity())
	d := s.Pipeline.NewDaemonFor(env)
	if err := d.Install(*v); err != nil {
		return false, err
	}
	deployed, err := emu.Run(variant.Program, env, emu.Options{Seed: s.Pipeline.Seed()})
	if err != nil {
		return false, err
	}
	r := impact.Classify(deployed, normal)
	return r.Immunizing(), nil
}

// vaccineTypes summarizes the resource kinds of a vaccine set
// ("mutex, file" style).
func vaccineTypes(vs []vaccine.Vaccine) string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range vs {
		k := v.Resource.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	s := ""
	for i, k := range out {
		if i > 0 {
			s += ","
		}
		s += k
	}
	return s
}

// FalsePositiveReport is the clinic-test experiment of §VI-E.
type FalsePositiveReport struct {
	VaccinesTested int
	ProgramsTested int
	// BenignRuns counts the vaccinated benign executions the clinic
	// made; a (vaccine, program) pair whose install changed nothing
	// the program's baseline read passes without one.
	BenignRuns int
	Rejections []clinic.Rejection
}

// FalsePositiveTest injects generated vaccines into the full benign
// suite and reports interference (the paper observed none for its
// shipped vaccines; candidates that would interfere are exactly what
// the clinic exists to catch).
func (s *Setup) FalsePositiveTest(vaccines []vaccine.Vaccine) (*FalsePositiveReport, error) {
	var rep *clinic.Report
	err := guard(func() error {
		var err error
		rep, err = clinic.Run(vaccines, s.Benign, clinic.Config{
			Seed:     s.Pipeline.Seed(),
			Identity: s.Pipeline.Identity(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &FalsePositiveReport{
		VaccinesTested: len(vaccines),
		ProgramsTested: rep.ProgramsTested,
		BenignRuns:     rep.Runs,
		Rejections:     rep.Rejected,
	}, nil
}
