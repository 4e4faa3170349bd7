// Fleet immunization: corpus-wide vaccine distribution to real machines.
//
// The paper's §VI-E installs 200 vaccines on everyday-use lab machines
// and §VII argues the footprint is tiny. This example reproduces that
// story at fleet scale, end-to-end through the distribution subsystem
// (internal/fleet): analyse a malware corpus once, deduplicate the
// vaccines, publish them in two waves to a sync server, let a fleet of
// concurrent host agents converge on the latest pack via delta sync
// (ETag/304 steady-state polling, retries over an injected-fault
// transport), and then measure how much of a fresh attack wave the
// immunized fleet shrugs off — compared against unprotected control
// hosts, and while the benign suite keeps running untouched.
//
// Run with:
//
//	go run ./examples/fleet_immunization
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"autovac/internal/core"
	"autovac/internal/emu"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

const (
	seed       = 42
	corpusSize = 120 // samples captured and analysed
	waveSize   = 40  // fresh attack wave (variants of corpus samples)
	machines   = 8   // lab machines running fleet agents (§VI-E)
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	gen := malware.NewGenerator(seed)
	corpus, err := gen.Corpus(corpusSize)
	if err != nil {
		return err
	}
	benign, err := malware.BenignCorpus()
	if err != nil {
		return err
	}
	index, err := exclusive.BuildIndex(benign, seed)
	if err != nil {
		return err
	}
	pipeline := core.New(core.Config{Seed: seed, Index: index})

	// Analyse the whole corpus once (the one-time analysis-side cost).
	// The corpus run is fault-isolated: a hostile sample that errors or
	// panics costs only its own vaccines, never the fleet's pack.
	results, stats, runErr := pipeline.AnalyzeCorpus(context.Background(), corpus, core.CorpusOptions{})
	if runErr != nil {
		fmt.Printf("corpus: %d sample(s) failed analysis (isolated): %v\n", stats.Failed, runErr)
	}
	var all []vaccine.Vaccine
	for _, res := range results {
		if res != nil {
			all = append(all, res.Vaccines...)
		}
	}
	deduped := vaccine.Dedupe(all)
	fmt.Printf("corpus: %d samples analysed in %v -> %d vaccines, %d after fleet dedupe\n",
		stats.Analyzed, stats.Wall.Round(time.Millisecond), len(all), len(deduped))

	// Distribute through the fleet subsystem: the analysis site
	// publishes in two waves (day-one pack, then a later update), and
	// one agent per lab machine pulls deltas over HTTP — with a fault
	// injected on every 6th pack request to show the retry path.
	split := len(deduped) * 2 / 3
	res, err := fleet.Simulate(context.Background(), fleet.SimConfig{
		Hosts:        machines,
		Waves:        [][]vaccine.Vaccine{deduped[:split], deduped[split:]},
		Seed:         seed,
		Generator:    "autovac-fleet-example",
		FailEveryNth: 6,
		Identity: func(i int) winenv.HostIdentity {
			id := winenv.DefaultIdentity()
			id.ComputerName = fmt.Sprintf("LAB-PC-%02d", i+1)
			id.IPAddress = fmt.Sprintf("10.0.0.%d", i+10)
			return id
		},
		Prepare: func(i int, env *winenv.Env) { malware.PrepareBenignEnv(env) },
	})
	if err != nil {
		// Host failures are isolated too: the rest of the fleet still
		// converged, so keep going with the survivors.
		if res == nil {
			return err
		}
		fmt.Printf("fleet sync: %d host(s) failed (isolated): %v\n", res.Failed, err)
	}
	fmt.Printf("fleet sync: %d/%d agents converged at version %d (2 waves)\n",
		res.Converged, machines, res.Version)
	fmt.Printf("  server: %d requests, %d deltas, %d 304s, %d checkins, %d bytes\n",
		res.Server.Requests, res.Server.DeltasServed, res.Server.NotModified,
		res.Server.Checkins, res.Server.BytesServed)
	fmt.Printf("  agents: %d installs, %d retries after injected faults\n\n",
		res.Stats.Applied, res.Stats.Retries)

	// A fresh attack wave: polymorphic variants of corpus samples.
	var wave []*malware.Sample
	for i := 0; len(wave) < waveSize && i < len(corpus); i++ {
		if !corpus[i].Spec.ResourceSensitive() {
			continue
		}
		vs, err := gen.Variants(corpus[i], 1, 0.2)
		if err != nil {
			return err
		}
		wave = append(wave, vs...)
	}

	// Replay the wave against the immunized fleet and against
	// unprotected control hosts with the same identities.
	stopped, weakened, unaffected, controlInfected := 0, 0, 0, 0
	for wi, attack := range wave {
		host := res.Agents[wi%machines].Env()
		normal, err := emu.Run(attack.Program, winenv.New(host.Identity()), emu.Options{Seed: seed})
		if err != nil {
			return err
		}
		if normal.Exit != trace.ExitProcess {
			controlInfected++
		}
		// Run against the live host, daemon hooks included.
		got, err := emu.Run(attack.Program, host, emu.Options{Seed: seed})
		if err != nil {
			return err
		}
		r := impact.Classify(got, normal)
		switch {
		case got.Exit == trace.ExitProcess && normal.Exit != trace.ExitProcess:
			stopped++
		case r.Immunizing():
			weakened++
		default:
			unaffected++
		}
	}
	fmt.Printf("attack wave of %d variants:\n", len(wave))
	fmt.Printf("  ran to payload on unprotected controls: %d\n", controlInfected)
	fmt.Printf("  against the immunized fleet:\n")
	fmt.Printf("    fully stopped:      %d\n", stopped)
	fmt.Printf("    payload weakened:   %d\n", weakened)
	fmt.Printf("    unaffected:         %d\n", unaffected)

	// The benign suite still runs cleanly on a vaccinated machine, daemon
	// hooks included; each program starts from the same host state.
	host := res.Agents[0].Env()
	snap := host.Snapshot()
	defer snap.Close()
	broken := 0
	for _, b := range benign {
		tr, err := emu.Run(b.Program, host, emu.Options{Seed: seed})
		host.Reset(snap)
		if err != nil {
			return err
		}
		if tr.Exit == trace.ExitFault {
			broken++
		}
	}
	fmt.Printf("\nbenign programs on the vaccinated fleet: %d/%d run cleanly\n",
		len(benign)-broken, len(benign))
	return nil
}
