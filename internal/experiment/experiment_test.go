package experiment

import (
	"fmt"
	"strings"
	"testing"

	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/winenv"
)

// smallSetup builds a setup over a reduced corpus (same Table II mix)
// to keep the unit tests fast; the full 1716-sample run is exercised by
// the benchmark harness.
func smallSetup(t *testing.T, size int) *Setup {
	t.Helper()
	s, err := NewSetup(42, size)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTableII(t *testing.T) {
	s := smallSetup(t, 1716)
	rows := s.TableII()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := malware.TableIICounts()
	for _, r := range rows {
		if r.Count != want[r.Category] {
			t.Errorf("%s = %d, want %d", r.Category, r.Count, want[r.Category])
		}
	}
	text := RenderTableII(rows)
	for _, frag := range []string{"Backdoor", "722", "42.0", "1716"} {
		if !strings.Contains(text, frag) {
			t.Errorf("render missing %q:\n%s", frag, text)
		}
	}
}

func TestPhase1StatsAndFigure3(t *testing.T) {
	s := smallSetup(t, 120)
	st, profiles, err := s.RunPhase1()
	if err != nil {
		t.Fatal(err)
	}
	if st.SamplesRun != len(s.Samples) || len(profiles) != st.SamplesRun {
		t.Fatalf("runs = %d/%d", st.SamplesRun, len(profiles))
	}
	if st.Occurrences == 0 {
		t.Fatal("no occurrences")
	}
	// The paper's shape: a large majority of occurrences deviate
	// execution (80.3% in the paper).
	ratio := st.SensitiveRatio()
	if ratio < 0.5 || ratio > 1.0 {
		t.Errorf("sensitive ratio = %.2f, want 0.5..1.0", ratio)
	}
	// Most samples are flagged.
	if st.SamplesFlagged < st.SamplesRun/2 {
		t.Errorf("flagged = %d of %d", st.SamplesFlagged, st.SamplesRun)
	}

	// Figure 3 shape: file is the dominant resource class.
	fileShare := st.KindShare(winenv.KindFile)
	for _, kind := range winenv.Kinds() {
		if kind == winenv.KindFile {
			continue
		}
		if share := st.KindShare(kind); share > fileShare {
			t.Errorf("%s share %.2f exceeds file share %.2f", kind, share, fileShare)
		}
	}
	rows := Figure3(st)
	sum := 0.0
	for _, r := range rows {
		sum += r.Total
	}
	if sum < 99.0 || sum > 101.0 {
		t.Errorf("figure 3 shares sum to %.2f%%", sum)
	}
	text := RenderFigure3(rows)
	if !strings.Contains(text, "file") || !strings.Contains(text, "mutex") {
		t.Errorf("render:\n%s", text)
	}
	_ = RenderPhase1(st)
}

func TestPhase2TablesSmallCorpus(t *testing.T) {
	s := smallSetup(t, 80)
	_, profiles, err := s.RunPhase1()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.RunPhase2(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Vaccines) == 0 {
		t.Fatal("no vaccines over corpus")
	}
	if gen.SamplesWithVaccines == 0 || gen.SamplesWithVaccines > gen.SamplesAnalyzed {
		t.Errorf("samples with vaccines = %d of %d", gen.SamplesWithVaccines, gen.SamplesAnalyzed)
	}
	if gen.StaticCount+gen.AlgorithmicCount != len(gen.Vaccines) {
		t.Error("class counts do not add up")
	}
	// Paper shape: static identifiers dominate (373 vs 163).
	if gen.StaticCount <= gen.AlgorithmicCount {
		t.Errorf("static=%d algorithmic=%d, want static majority", gen.StaticCount, gen.AlgorithmicCount)
	}

	// Table IV: totals add up; Type-III (persistence) is the most
	// common partial type in the paper.
	t4 := TableIV(gen)
	all := 0
	for _, r := range t4 {
		all += r.All
	}
	if all != len(gen.Vaccines) {
		t.Errorf("table IV total = %d, want %d", all, len(gen.Vaccines))
	}
	text := RenderTableIV(t4)
	if !strings.Contains(text, "Total") {
		t.Errorf("render:\n%s", text)
	}

	// Table V: shares per category sum to ~100 for non-empty categories.
	t5 := TableV(gen)
	for _, r := range t5 {
		if r.Total == 0 {
			continue
		}
		sum := 0.0
		for _, v := range r.ResourceShare {
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s resource shares sum to %.1f", r.Category, sum)
		}
		if r.DirectShare+r.DaemonShare < 99 || r.DirectShare+r.DaemonShare > 101 {
			t.Errorf("%s deployment shares sum to %.1f", r.Category, r.DirectShare+r.DaemonShare)
		}
	}
	_ = RenderTableV(t5)

	// Table III: ten representative rows with fingerprints.
	t3 := TableIII(gen, s.Samples, 10)
	if len(t3) == 0 {
		t.Fatal("table III empty")
	}
	for _, r := range t3 {
		if r.SampleMD5 == "" || r.Identifier == "" {
			t.Errorf("incomplete row: %+v", r)
		}
	}
	_ = RenderTableIII(t3)
}

func TestTableVIZeus(t *testing.T) {
	s := smallSetup(t, 40)
	_, profiles, err := s.RunPhase1()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.RunPhase2(profiles)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := TableVI(gen)
	if !ok {
		t.Fatal("Zeus _AVIRA_ vaccine not found in corpus results")
	}
	if v.Resource != winenv.KindMutex {
		t.Errorf("table VI vaccine = %+v", v)
	}
	text := RenderTableVI(v, ok)
	if !strings.Contains(text, "_AVIRA_") {
		t.Errorf("render:\n%s", text)
	}
}

func TestFigure4BDR(t *testing.T) {
	s := smallSetup(t, 40)
	_, profiles, err := s.RunPhase1()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.RunPhase2(profiles)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*malware.Sample)
	for _, sm := range s.Samples {
		byName[sm.Name()] = sm
	}
	points, err := s.Figure4(gen, byName, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no BDR points")
	}
	sums := SummarizeBDR(points)
	if len(sums) == 0 {
		t.Fatal("no BDR summaries")
	}
	// Shape: full-immunization vaccines have the highest BDR band.
	var full, partialMax float64
	for _, sm := range sums {
		if sm.Effect == impact.Full {
			full = sm.Median
		} else if sm.Median > partialMax {
			partialMax = sm.Median
		}
	}
	if full > 0 && partialMax > 0 && full < partialMax-0.3 {
		t.Errorf("full median %.2f far below partial max %.2f", full, partialMax)
	}
	for _, p := range points {
		if p.BDR < 0 || p.BDR > 1 {
			t.Errorf("BDR out of range: %+v", p)
		}
		if p.Effect == impact.Full && p.BDR == 1.0 {
			t.Errorf("full BDR exactly 1.0 (pre-exit probes should count): %+v", p)
		}
	}
	_ = RenderFigure4(sums)
}

func TestTableVIIVariants(t *testing.T) {
	s := smallSetup(t, 10)
	rows, err := s.TableVII(5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	ideal, verified := 0, 0
	for _, r := range rows {
		if r.VaccineN == 0 {
			t.Errorf("%s produced no vaccines", r.Family)
		}
		if r.Verified > r.IdealCases {
			t.Errorf("%s verified %d > ideal %d", r.Family, r.Verified, r.IdealCases)
		}
		ideal += r.IdealCases
		verified += r.Verified
	}
	ratio := float64(verified) / float64(max(ideal, 1))
	// Paper: 82% overall; variants drop behaviours so the ratio sits
	// below 100% but stays high.
	if ratio < 0.55 || ratio > 1.0 {
		t.Errorf("overall ratio = %.2f, want 0.55..1.0", ratio)
	}
	text := RenderTableVII(rows)
	if !strings.Contains(text, "Total") || !strings.Contains(text, "Conficker") {
		t.Errorf("render:\n%s", text)
	}
}

func TestFalsePositiveExperiment(t *testing.T) {
	s := smallSetup(t, 20)
	_, profiles, err := s.RunPhase1()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := s.RunPhase2(profiles)
	if err != nil {
		t.Fatal(err)
	}
	limit := gen.Vaccines
	if len(limit) > 10 {
		limit = limit[:10]
	}
	rep, err := s.FalsePositiveTest(limit)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline-passed vaccines (exclusiveness-filtered) must not
	// interfere with the benign suite.
	if len(rep.Rejections) != 0 {
		t.Errorf("false positives: %v", rep.Rejections)
	}
	if rep.ProgramsTested < 40 {
		t.Errorf("benign suite = %d", rep.ProgramsTested)
	}
	if pairs := rep.VaccinesTested * rep.ProgramsTested; rep.BenignRuns > pairs {
		t.Errorf("benign runs = %d, more than the %d (vaccine, program) pairs", rep.BenignRuns, pairs)
	}
	if text := RenderFalsePositive(rep); !strings.Contains(text, fmt.Sprintf("benign runs:       %d of ", rep.BenignRuns)) {
		t.Errorf("rendering lacks the benign runs line:\n%s", text)
	}
	_ = RenderGenSummary(gen)
}
