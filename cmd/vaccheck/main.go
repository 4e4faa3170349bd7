// Command vaccheck audits vaccine packs offline: it runs the
// distribution gate (vaccine.Vaccine.Verify: record validation, the
// static slice verifier, and the domain sinkhole rule) over every
// vaccine in one or more pack files, reporting each violation with its
// rule, and exits non-zero if any vaccine fails. It is the same gate
// fleet publication applies, usable before a pack ever reaches a
// registry.
//
// Usage:
//
//	vaccheck pack.json [more-packs.json ...]
//	vaccheck -q pack.json        # summary line only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"autovac/internal/vaccine"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vaccheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vaccheck", flag.ContinueOnError)
	fs.SetOutput(out)
	quiet := fs.Bool("q", false, "suppress per-vaccine output, print the summary only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("need at least one pack file (see -h)")
	}

	total, bad := 0, 0
	for _, path := range fs.Args() {
		n, analysis, failures, err := checkPack(path)
		if err != nil {
			return err
		}
		total += n
		bad += len(failures)
		if !*quiet {
			for _, f := range failures {
				fmt.Fprintf(out, "FAIL %s: %v\n", path, f)
			}
			if analysis != nil {
				fmt.Fprintf(out, "%s: analysed %d sample(s)", path, analysis.Analyzed)
				if analysis.TriageSkipped > 0 {
					fmt.Fprintf(out, ", %d triage-skipped (Phase-0)", analysis.TriageSkipped)
				}
				fmt.Fprintln(out)
			}
		}
	}
	fmt.Fprintf(out, "%d vaccine(s) checked, %d failure(s)\n", total, bad)
	if bad > 0 {
		return fmt.Errorf("%d vaccine(s) failed verification", bad)
	}
	return nil
}

// checkPack decodes one pack file without the read-time validation
// short-circuit (a single bad vaccine must not hide the rest) and
// verifies every vaccine. The pack's embedded analysis stats (if any)
// come back so provenance — including Phase-0 triage skips — can be
// reported alongside the verdict.
func checkPack(path string) (int, *vaccine.AnalysisStats, []error, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer f.Close()
	var p vaccine.Pack
	if err := json.NewDecoder(f).Decode(&p); err != nil {
		return 0, nil, nil, fmt.Errorf("%s: decoding pack: %w", path, err)
	}
	var failures []error
	for i := range p.Vaccines {
		if err := p.Vaccines[i].Verify(); err != nil {
			failures = append(failures, err)
		}
	}
	return len(p.Vaccines), p.Analysis, failures, nil
}
