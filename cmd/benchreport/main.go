// Command benchreport regenerates the paper's evaluation tables and
// figures over the synthetic corpus (see DESIGN.md's experiment index).
//
// Usage:
//
//	benchreport -all                 # everything, paper-scale corpus
//	benchreport -all -n 200          # everything, reduced corpus
//	benchreport -table 4 -n 400
//	benchreport -figure 3 -n 400
//	benchreport -phase1 -n 400
//	benchreport -timing              # the §VI-F table
//	benchreport -bench               # every bench row -> BENCH_emu.json
//	benchreport -controlplane -hosts 100000            # direct fan-out study
//	benchreport -controlplane -hosts 1000000 -relays 32 # two-tier relay study
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"autovac/internal/experiment"
	"autovac/internal/malware"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	var (
		n      = fs.Int("n", 1716, "corpus size (1716 = paper scale)")
		seed   = fs.Int64("seed", 42, "deterministic seed")
		table  = fs.Int("table", 0, "regenerate one table (1..7)")
		figure = fs.Int("figure", 0, "regenerate one figure (3 or 4)")
		phase1 = fs.Bool("phase1", false, "regenerate the Phase-I statistics (§VI-B)")
		fptest = fs.Bool("fp", false, "run the clinic false-positive test (§VI-E)")
		timing = fs.Bool("timing", false, "run the §VI-F performance measurements")
		evade  = fs.Bool("evasion", false, "run the §VII evasion/limitation experiments")
		ablate = fs.Bool("ablation", false, "run the design-choice ablation study")
		triage = fs.Bool("triage", false, "run the Phase-0 triage study (static API-surface recovery on vs off)")
		epidem = fs.Bool("epidemic", false, "run the killswitch-worm vs vaccine-sync epidemic race")
		cplane = fs.Bool("controlplane", false, "run the fleet-scale distribution study (poll vs long-poll vs binary; -relays adds the edge tier)")
		hosts  = fs.Int("hosts", 100000, "fleet size for -controlplane")
		relays = fs.Int("relays", 0, "edge relay count for -controlplane (0 = direct origin fan-out)")
		fout   = fs.String("fleetout", "BENCH_fleet.json", "machine-readable -controlplane output path")
		all    = fs.Bool("all", false, "regenerate everything")
		bdrCap = fs.Int("bdrcap", 10, "max vaccines measured per effect class for Figure 4")
		bench  = fs.Bool("bench", false, "measure every bench row (emulator, §VI-F, delta codec) and write -benchout")
		bout   = fs.String("benchout", "BENCH_emu.json", "machine-readable bench output path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench {
		// The bench rows build their own fixtures; skip the corpus
		// setup the report paths need.
		return runBench(*bout)
	}
	if *cplane {
		// The control-plane study builds its own in-process fleet; skip
		// the corpus setup the report paths need. It is never part of
		// -all: at the default 100k hosts it is a multi-second wall-clock
		// measurement that would distort the report timings around it.
		return runFleetBench(context.Background(), *hosts, *relays, *seed, *fout)
	}
	if !*all && *table == 0 && *figure == 0 && !*phase1 && !*fptest && !*timing && !*evade && !*ablate && !*triage && !*epidem {
		*all = true
	}
	if *epidem && !*all {
		// The epidemic race builds its own worm and fleet; skip the
		// corpus setup the report paths need.
		rep, err := experiment.RunEpidemic(experiment.EpidemicConfig{Seed: uint64(*seed)})
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderEpidemic(rep))
		return nil
	}

	// partial collects isolated experiment failures: every completed
	// table/figure is still rendered, and the joined failures make the
	// exit non-zero at the end.
	var partial []error

	start := time.Now()
	setup, err := experiment.NewSetup(*seed, *n)
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d samples, %d benign programs, %d indexed identifiers (setup %v)\n\n",
		len(setup.Samples), len(setup.Benign), setup.Index.Size(),
		time.Since(start).Round(time.Millisecond))

	if *all || *table == 1 {
		fmt.Println(experiment.RenderTableI(experiment.TableI()))
		res, total := experiment.Hooked()
		fmt.Printf("hooked resource APIs: %d of %d registered\n\n", res, total)
	}
	if *all || *table == 2 {
		fmt.Println(experiment.RenderTableII(setup.TableII()))
	}

	needPhase1 := *all || *phase1 || *figure == 3 || *figure == 4 || *fptest ||
		*table == 3 || *table == 4 || *table == 5 || *table == 6
	var stats *experiment.Phase1Stats
	var gen *experiment.GenStats
	if needPhase1 {
		t0 := time.Now()
		st, profs, err := setup.RunPhase1()
		if err != nil {
			// Per-sample isolation: render what completed, fail at exit.
			partial = append(partial, err)
		}
		stats = st
		if *all || *phase1 {
			fmt.Println(experiment.RenderPhase1(stats))
		}
		if *all || *figure == 3 {
			fmt.Println(experiment.RenderFigure3(experiment.Figure3(stats)))
		}
		needPhase2 := *all || *figure == 4 || *fptest ||
			*table == 3 || *table == 4 || *table == 5 || *table == 6
		if needPhase2 {
			g, err := setup.RunPhase2(profs)
			if err != nil {
				partial = append(partial, err)
			}
			gen = g
			if *all {
				fmt.Println(experiment.RenderGenSummary(gen))
			}
		}
		fmt.Printf("(phase 1+2 over %d samples: %v)\n\n", stats.SamplesRun,
			time.Since(t0).Round(time.Millisecond))
	}

	if gen != nil && (*all || *table == 4) {
		fmt.Println(experiment.RenderTableIV(experiment.TableIV(gen)))
	}
	if gen != nil && (*all || *table == 3) {
		fmt.Println(experiment.RenderTableIII(experiment.TableIII(gen, setup.Samples, 10)))
	}
	if gen != nil && (*all || *table == 5) {
		fmt.Println(experiment.RenderTableV(experiment.TableV(gen)))
	}
	if gen != nil && (*all || *table == 6) {
		v, ok := experiment.TableVI(gen)
		fmt.Println(experiment.RenderTableVI(v, ok))
	}
	if gen != nil && (*all || *figure == 4) {
		byName := make(map[string]*malware.Sample, len(setup.Samples))
		for _, s := range setup.Samples {
			byName[s.Name()] = s
		}
		points, err := setup.Figure4(gen, byName, *bdrCap)
		if err != nil {
			partial = append(partial, err)
		}
		fmt.Println(experiment.RenderFigure4(experiment.SummarizeBDR(points)))
	}
	if *all || *table == 7 {
		rows, err := setup.TableVII(5, 0.45)
		if err != nil {
			partial = append(partial, err)
		}
		fmt.Println(experiment.RenderTableVII(rows))
	}
	if gen != nil && (*all || *fptest) {
		vs := gen.Vaccines
		if len(vs) > 25 {
			vs = vs[:25] // keep the full-suite clinic run tractable
		}
		rep, err := setup.FalsePositiveTest(vs)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderFalsePositive(rep))
	}

	if *all || *timing {
		rs, err := experiment.MeasureTiming()
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderTiming(rs))
	}
	if *all || *evade {
		ren, err := setup.RenameEvasion(malware.PoisonIvy)
		if err != nil {
			return err
		}
		fo, fe, ri, err := setup.CheckDropEvasion()
		if err != nil {
			return err
		}
		cd, err := setup.ControlDepEvasion()
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderEvasion(ren, fo, fe, ri, cd))
	}
	if *all || *epidem {
		rep, err := experiment.RunEpidemic(experiment.EpidemicConfig{Seed: uint64(*seed)})
		if err != nil {
			partial = append(partial, err)
		} else {
			fmt.Println(experiment.RenderEpidemic(rep))
		}
	}
	if *all || *triage {
		// Per-band size scales with the corpus so a reduced -n run stays
		// quick while paper scale gets a meaningful skippable population.
		perBand := *n / 64
		if perBand < 4 {
			perBand = 4
		}
		st, err := setup.Triage(context.Background(), perBand)
		if err != nil {
			partial = append(partial, err)
		} else {
			fmt.Println(experiment.RenderTriage(st))
		}
	}
	if *ablate {
		_, profiles, err := setup.RunPhase1()
		if err != nil {
			partial = append(partial, err)
		}
		rep, err := setup.Ablation(profiles)
		if err != nil {
			partial = append(partial, err)
		}
		fmt.Println(experiment.RenderAblation(rep))
	}

	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	return errors.Join(partial...)
}
