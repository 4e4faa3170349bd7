package experiment

import (
	"fmt"
	"strings"

	"autovac/internal/impact"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// RenderTableII renders the corpus classification table.
func RenderTableII(rows []CategoryCount) string {
	var b strings.Builder
	b.WriteString("Table II — Malware classification\n")
	fmt.Fprintf(&b, "%-12s %9s %10s\n", "Category", "#Malware", "Percent")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %9.2f%%\n", r.Category, r.Count, r.Percent)
		total += r.Count
	}
	fmt.Fprintf(&b, "%-12s %9d %9.2f%%\n", "Total", total, 100.0)
	return b.String()
}

// RenderPhase1 renders the §VI-B candidate-selection statistics.
func RenderPhase1(st *Phase1Stats) string {
	var b strings.Builder
	b.WriteString("Phase-I — Candidate selection (§VI-B)\n")
	fmt.Fprintf(&b, "samples profiled:            %d\n", st.SamplesRun)
	fmt.Fprintf(&b, "samples flagged:             %d (%.1f%%)\n",
		st.SamplesFlagged, 100*float64(st.SamplesFlagged)/float64(max(st.SamplesRun, 1)))
	fmt.Fprintf(&b, "resource-API occurrences:    %d\n", st.Occurrences)
	fmt.Fprintf(&b, "execution-deviating (taint): %d (%.1f%%)\n",
		st.Sensitive, 100*st.SensitiveRatio())
	return b.String()
}

// RenderFigure3 renders the resource-sensitive behaviour distribution
// as a text chart.
func RenderFigure3(rows []Figure3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3 — Malware's resource-sensitive behaviours\n")
	fmt.Fprintf(&b, "%-10s", "Resource")
	ops := winenv.Ops()
	for _, op := range ops {
		fmt.Fprintf(&b, " %8s", op)
	}
	fmt.Fprintf(&b, " %8s\n", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Kind)
		for _, op := range ops {
			fmt.Fprintf(&b, " %7.2f%%", r.Share[op])
		}
		fmt.Fprintf(&b, " %7.2f%%\n", r.Total)
	}
	return b.String()
}

// RenderTableIV renders vaccine counts by resource × immunization type.
func RenderTableIV(rows []TableIVRow) string {
	var b strings.Builder
	b.WriteString("Table IV — Vaccine generation by resource and immunization type\n")
	effects := []impact.Effect{impact.Full, impact.TypeI, impact.TypeII, impact.TypeIII, impact.TypeIV}
	fmt.Fprintf(&b, "%-10s", "Resource")
	for _, e := range effects {
		fmt.Fprintf(&b, " %9s", e)
	}
	fmt.Fprintf(&b, " %6s\n", "All")
	totals := make(map[impact.Effect]int)
	all := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Resource)
		for _, e := range effects {
			fmt.Fprintf(&b, " %9d", r.Counts[e])
			totals[e] += r.Counts[e]
		}
		fmt.Fprintf(&b, " %6d\n", r.All)
		all += r.All
	}
	fmt.Fprintf(&b, "%-10s", "Total")
	for _, e := range effects {
		fmt.Fprintf(&b, " %9d", totals[e])
	}
	fmt.Fprintf(&b, " %6d\n", all)
	return b.String()
}

// RenderTableV renders vaccine statistics per malware category.
func RenderTableV(rows []TableVRow) string {
	var b strings.Builder
	b.WriteString("Table V — Vaccine statistics on different malware families\n")
	fmt.Fprintf(&b, "%-10s", "Vaccine")
	for _, r := range rows {
		fmt.Fprintf(&b, " %11s", r.Category)
	}
	b.WriteString("\n")
	for _, kind := range winenv.Kinds() {
		fmt.Fprintf(&b, "%-10s", kind)
		for _, r := range rows {
			fmt.Fprintf(&b, " %10.0f%%", r.ResourceShare[kind])
		}
		b.WriteString("\n")
	}
	b.WriteString("Deployment\n")
	fmt.Fprintf(&b, "%-10s", "Direct")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10.0f%%", r.DirectShare)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s", "Daemon")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10.0f%%", r.DaemonShare)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s", "(n)")
	for _, r := range rows {
		fmt.Fprintf(&b, " %11d", r.Total)
	}
	b.WriteString("\n")
	return b.String()
}

// RenderTableIII renders the representative vaccine zoom-in.
func RenderTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	b.WriteString("Table III — Vaccine samples (E=check existence, C=create, R=read, W=write;\n")
	b.WriteString("            T=termination, H=process hijacking, P=persistence, K=kernel injection, N=network)\n")
	fmt.Fprintf(&b, "%-4s %-9s %-9s %-8s %-44s %s\n",
		"Seq", "Type", "OperType", "Impact", "Identifier", "Sample")
	for _, r := range rows {
		ident := r.Identifier
		if len(ident) > 44 {
			ident = ident[:41] + "..."
		}
		fmt.Fprintf(&b, "%-4d %-9s %-9s %-8s %-44s %s\n",
			r.Seq, r.Type, r.OperType, r.Impact, ident, r.SampleMD5)
	}
	return b.String()
}

// RenderTableVI renders the high-profile Zeus vaccine example.
func RenderTableVI(v vaccine.Vaccine, ok bool) string {
	var b strings.Builder
	b.WriteString("Table VI — Example of a high-profile malware vaccine\n")
	fmt.Fprintf(&b, "%-12s %-14s %-7s %s\n", "Malware", "Vaccine", "Type", "Impact Description")
	if !ok {
		b.WriteString("(no Zeus mutex vaccine generated)\n")
		return b.String()
	}
	desc := "Stop process hijacking"
	if v.Effect == impact.Full {
		desc = "Terminate execution"
	}
	fmt.Fprintf(&b, "%-12s %-14s %-7s %s\n", v.Family, v.Identifier, v.Resource, desc)
	return b.String()
}

// RenderFigure4 renders the BDR distribution summary.
func RenderFigure4(sums []BDRSummary) string {
	var b strings.Builder
	b.WriteString("Figure 4 — Distribution of Behavior Decreasing Ratio (BDR)\n")
	fmt.Fprintf(&b, "%-10s %6s %8s %8s %8s\n", "Effect", "n", "min", "median", "max")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-10s %6d %7.0f%% %7.0f%% %7.0f%%\n",
			s.Effect, s.Count, 100*s.Min, 100*s.Median, 100*s.Max)
	}
	return b.String()
}

// RenderTableVII renders the variant-effectiveness experiment.
func RenderTableVII(rows []TableVIIRow) string {
	var b strings.Builder
	b.WriteString("Table VII — Vaccine effectiveness on malware variants\n")
	fmt.Fprintf(&b, "%-12s %9s %-20s %6s %9s %6s\n",
		"Malware", "Vaccine#", "Type", "Ideal", "Verified", "Ratio")
	ideal, verified := 0, 0
	totalVacc := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %-20s %6d %9d %5.0f%%\n",
			r.Family, r.VaccineN, r.Types, r.IdealCases, r.Verified, 100*r.SuccessRate)
		ideal += r.IdealCases
		verified += r.Verified
		totalVacc += r.VaccineN
	}
	ratio := 0.0
	if ideal > 0 {
		ratio = float64(verified) / float64(ideal)
	}
	fmt.Fprintf(&b, "%-12s %9d %-20s %6d %9d %5.0f%%\n",
		"Total", totalVacc, "", ideal, verified, 100*ratio)
	return b.String()
}

// RenderGenSummary renders the §VI-C headline numbers.
func RenderGenSummary(st *GenStats) string {
	var b strings.Builder
	b.WriteString("Phase-II — Vaccine generation (§VI-C)\n")
	fmt.Fprintf(&b, "samples analyzed:        %d\n", st.SamplesAnalyzed)
	fmt.Fprintf(&b, "samples with vaccines:   %d\n", st.SamplesWithVaccines)
	fmt.Fprintf(&b, "vaccines generated:      %d\n", len(st.Vaccines))
	fmt.Fprintf(&b, "static identifiers:      %d\n", st.StaticCount)
	fmt.Fprintf(&b, "algorithmic/partial:     %d\n", st.AlgorithmicCount)
	return b.String()
}

// RenderFalsePositive renders the clinic false-positive experiment.
func RenderFalsePositive(rep *FalsePositiveReport) string {
	var b strings.Builder
	b.WriteString("False-positive test — Malware clinic (§VI-E)\n")
	fmt.Fprintf(&b, "vaccines tested:   %d\n", rep.VaccinesTested)
	fmt.Fprintf(&b, "benign programs:   %d\n", rep.ProgramsTested)
	fmt.Fprintf(&b, "benign runs:       %d of %d (vaccine, program) pairs\n",
		rep.BenignRuns, rep.VaccinesTested*rep.ProgramsTested)
	fmt.Fprintf(&b, "interferences:     %d\n", len(rep.Rejections))
	for _, r := range rep.Rejections {
		fmt.Fprintf(&b, "  rejected: %s\n", r)
	}
	return b.String()
}
