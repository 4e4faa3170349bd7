// Command autovac runs the AUTOVAC pipeline: it analyses synthetic
// malware samples (a named family or a whole corpus), extracts system
// resource constraints, and generates vaccine packages.
//
// Corpus runs are fault-isolated and cancellable: a sample that errors
// or panics never takes down the run — its failure is reported, every
// healthy sample's vaccines are still emitted (and written to -out),
// and the process exits non-zero. -timeout bounds the whole run,
// -max-errors stops dispatching new samples after too many failures,
// and SIGINT/SIGTERM cancel cleanly with partial results.
//
// Usage:
//
//	autovac -family zeus -out vaccines.json
//	autovac -corpus 200 -seed 42 -workers 8 -out corpus-vaccines.json
//	autovac -corpus 500 -timeout 5m -max-errors 10
//	autovac -family conficker -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "autovac:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("autovac", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		family    = fs.String("family", "", "analyse one family: zeus|conficker|sality|qakbot|ibank|poisonivy")
		corpusN   = fs.Int("corpus", 0, "analyse a generated corpus of this size")
		seed      = fs.Int64("seed", 42, "deterministic seed")
		outPath   = fs.String("out", "", "write the vaccine pack to this file (default stdout summary only)")
		clinicN   = fs.Int("clinic", 0, "run the clinic test against this many benign programs (0 = skip)")
		workers   = fs.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
		timeout   = fs.Duration("timeout", 0, "bound the whole corpus run (0 = none); completed results are still emitted")
		maxErrors = fs.Int("max-errors", 0, "stop dispatching new samples after this many failures (0 = analyse everything)")
		triage    = fs.Bool("static-triage", false, "Phase-0: skip emulation of samples whose statically recovered API surface holds no resource API")
		hashN     = fs.Int("hash-corpus", 0, "append this many hash-resolving samples per band to a -corpus run (exercises -static-triage)")
		verbose   = fs.Bool("v", false, "print per-candidate detail")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *family == "" && *corpusN == 0 {
		return fmt.Errorf("need -family or -corpus (see -h)")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	benign, err := malware.BenignCorpus()
	if err != nil {
		return err
	}
	ix, err := exclusive.BuildIndex(benign, uint64(*seed))
	if err != nil {
		return err
	}
	cfg := core.Config{Seed: uint64(*seed), Index: ix}
	if *clinicN > 0 {
		n := *clinicN
		if n > len(benign) {
			n = len(benign)
		}
		cfg.Benign = benign[:n]
	}
	pipeline := core.New(cfg)
	gen := malware.NewGenerator(*seed)

	var samples []*malware.Sample
	if *family != "" {
		f, err := parseFamily(*family)
		if err != nil {
			return err
		}
		s, err := gen.FamilySample(f)
		if err != nil {
			return err
		}
		samples = []*malware.Sample{s}
	} else {
		samples, err = gen.Corpus(*corpusN)
		if err != nil {
			return err
		}
		if *hashN > 0 {
			hr, err := gen.HashResolveCorpus(*hashN)
			if err != nil {
				return err
			}
			samples = append(samples, hr...)
		}
	}

	// The fault-isolated corpus run: per-sample panic containment,
	// partial results, and an aggregated error in sample order.
	results, stats, runErr := pipeline.AnalyzeCorpus(ctx, samples, core.CorpusOptions{
		Workers:      *workers,
		MaxErrors:    *maxErrors,
		StaticTriage: *triage,
	})

	pack := &vaccine.Pack{Generator: "autovac-go/1.0"}
	flagged, immunized := 0, 0
	for i, res := range results {
		if res == nil {
			continue
		}
		s := samples[i]
		if res.Profile.HasVaccineCandidates() {
			flagged++
		}
		if len(res.Vaccines) > 0 {
			immunized++
		}
		pack.Vaccines = append(pack.Vaccines, res.Vaccines...)
		if *verbose {
			fmt.Fprintf(out, "%s (%s/%s): %d candidates, %d vaccines\n",
				s.Name(), s.Spec.Category, s.Spec.Family,
				len(res.Profile.Candidates), len(res.Vaccines))
			for _, v := range res.Vaccines {
				fmt.Fprintf(out, "  + %s\n", v.String())
			}
			for _, r := range res.Rejected {
				fmt.Fprintf(out, "  - %s %q rejected at %s: %s\n",
					r.Candidate.Call.API, r.Candidate.Call.Identifier, r.Stage, r.Reason)
			}
			for _, r := range res.ClinicRejections {
				fmt.Fprintf(out, "  - clinic: %s\n", r)
			}
		}
	}

	fmt.Fprintf(out, "samples analysed:  %d/%d\n", stats.Analyzed, len(samples))
	if *triage {
		fmt.Fprintf(out, "triage skipped:    %d (Phase-0: no resource API in the recovered surface)\n", stats.TriageSkipped)
	}
	if stats.Failed > 0 || stats.Skipped > 0 {
		fmt.Fprintf(out, "failed:            %d (%d panicked)\n", stats.Failed, stats.Panicked)
		fmt.Fprintf(out, "skipped:           %d\n", stats.Skipped)
	}
	fmt.Fprintf(out, "flagged (Phase-I): %d\n", flagged)
	fmt.Fprintf(out, "with vaccines:     %d\n", immunized)
	fmt.Fprintf(out, "vaccines:          %d\n", len(pack.Vaccines))
	fmt.Fprintf(out, "wall time:         %v (mean %v/sample)\n",
		stats.Wall.Round(time.Millisecond), stats.MeanSampleTime().Round(time.Microsecond))
	if len(samples) > 1 {
		// Fleet deployment installs each resource once.
		pack.Vaccines = vaccine.Dedupe(pack.Vaccines)
		fmt.Fprintf(out, "after dedupe:      %d\n", len(pack.Vaccines))
	}

	// Emit completed results even on a partial run: the pack carries
	// every healthy sample's vaccines plus the run's analysis stats.
	if *outPath != "" {
		st := stats.AnalysisStats()
		pack.Analysis = &st
		if werr := writePack(pack, *outPath, out); werr != nil {
			return errors.Join(runErr, werr)
		}
	}
	return runErr
}

// writePack verifies the pack (the mandatory pre-distribution gate:
// record validation plus static slice verification) and serializes it.
func writePack(pack *vaccine.Pack, path string, out io.Writer) error {
	if err := pack.Verify(); err != nil {
		return fmt.Errorf("pack failed verification: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pack.WriteJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(out, "pack written to %s\n", path)
	return nil
}

// parseFamily maps a CLI name to a malware family.
func parseFamily(s string) (malware.Family, error) {
	switch strings.ToLower(s) {
	case "zeus", "zbot":
		return malware.Zeus, nil
	case "conficker":
		return malware.Conficker, nil
	case "sality":
		return malware.Sality, nil
	case "qakbot":
		return malware.Qakbot, nil
	case "ibank":
		return malware.IBank, nil
	case "poisonivy", "pi":
		return malware.PoisonIvy, nil
	}
	return "", fmt.Errorf("unknown family %q", s)
}
