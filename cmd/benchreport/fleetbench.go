package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"autovac/internal/experiment"
)

// The -controlplane mode measures the distribution layer at fleet
// scale: the convergence study, optionally through a relay tier,
// written to BENCH_fleet.json so the committed numbers are
// machine-readable. The delta codec's micro-rows are bench rows
// (BENCH_emu.json).

// fleetStudyRow is one control-plane study row in BENCH_fleet.json.
type fleetStudyRow struct {
	Mode           string  `json:"mode"`
	ConvergeMs     float64 `json:"converge_ms"`
	SyncP50Ms      float64 `json:"sync_p50_ms"`
	SyncP99Ms      float64 `json:"sync_p99_ms"`
	Requests       uint64  `json:"requests"`
	OriginRequests uint64  `json:"origin_requests"`
	EdgeRequests   uint64  `json:"edge_requests,omitempty"`
	BytesOnWire    uint64  `json:"bytes_on_wire"`
	Deltas         uint64  `json:"deltas"`
	DecodeErrors   uint64  `json:"decode_errors"`
}

// fleetReport is the machine-readable BENCH_fleet.json document.
type fleetReport struct {
	GOOS            string          `json:"goos"`
	GOARCH          string          `json:"goarch"`
	Go              string          `json:"go"`
	Seed            int64           `json:"seed"`
	Hosts           int             `json:"hosts"`
	Waves           int             `json:"waves"`
	VaccinesPerWave int             `json:"vaccines_per_wave"`
	Relays          int             `json:"relays"`
	Study           []fleetStudyRow `json:"study"`
}

// runFleetBench runs the control-plane study, prints it, and writes
// BENCH_fleet.json.
func runFleetBench(ctx context.Context, hosts, relays int, seed int64, outPath string) error {
	rep := &fleetReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		Seed: seed,
	}
	study, err := experiment.RunControlPlane(ctx, experiment.ControlPlaneConfig{
		Hosts:  hosts,
		Relays: relays,
		Seed:   uint64(seed),
	})
	if err != nil {
		return err
	}
	rep.Hosts, rep.Waves = study.Hosts, study.Waves
	rep.VaccinesPerWave, rep.Relays = study.VaccinesPerWave, study.Relays
	for _, row := range study.Rows {
		r := row.Result
		rep.Study = append(rep.Study, fleetStudyRow{
			Mode:       row.Mode,
			ConvergeMs: float64(r.ConvergeTime) / float64(time.Millisecond),
			SyncP50Ms:  float64(r.SyncP50) / float64(time.Millisecond),
			SyncP99Ms:  float64(r.SyncP99) / float64(time.Millisecond),
			Requests:   r.Requests, OriginRequests: r.OriginRequests,
			EdgeRequests: r.EdgeRequests, BytesOnWire: r.BytesOnWire,
			Deltas: r.Deltas, DecodeErrors: r.DecodeErrors,
		})
	}
	fmt.Println(experiment.RenderControlPlane(study))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
