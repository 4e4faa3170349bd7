package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"autovac/internal/determinism"
	"autovac/internal/experiment"
	"autovac/internal/fleet"
	"autovac/internal/impact"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// The -controlplane mode measures the distribution layer the way the
// -bench mode measures the emulator: a micro section (the delta codec,
// JSON vs binary, head to head on realistic pack sizes) and a macro
// section (the fleet-scale convergence study, optionally through a
// relay tier), written to BENCH_fleet.json so the committed numbers are
// machine-readable. The JSON codec is the baseline for every binary
// row — a shrink/speedup claim is attached to measurements, not
// adjectives.

// fleetCodecRow is one codec measurement in BENCH_fleet.json.
type fleetCodecRow struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BodyBytes   int     `json:"body_bytes,omitempty"`

	BaselineNsPerOp   float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineBodyBytes int     `json:"baseline_body_bytes,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
	Shrink            float64 `json:"shrink,omitempty"`
}

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
	Baseline        string          `json:"baseline"`
	Codec           []fleetCodecRow `json:"codec"`
	Study           []fleetStudyRow `json:"study"`
}

// fleetBenchVaccines builds n distinct static vaccines of the same
// shape the control-plane study publishes.
func fleetBenchVaccines(n int) []vaccine.Vaccine {
	vs := make([]vaccine.Vaccine, n)
	for i := range vs {
		vs[i] = vaccine.Vaccine{
			ID: fmt.Sprintf("bench/mutex/%d", i), Sample: "bench",
			Resource: winenv.KindMutex, Identifier: fmt.Sprintf("FLEET-BENCH-MARKER-%04d", i),
			Class: determinism.Static, Op: "create", API: "CreateMutexA",
			Effect: impact.Full, Polarity: vaccine.SimulatePresence,
			Delivery: vaccine.DirectInjection,
		}
	}
	return vs
}

// measureCodec benchmarks both delta encodings over a pack of size n
// and appends four rows (encode/decode x json/binary), wiring the JSON
// measurements in as the binary rows' baselines.
func measureCodec(rep *fleetReport, n int) error {
	reg := fleet.NewRegistry(0)
	reg.SetGenerator("benchreport")
	if _, _, err := reg.Publish(fleetBenchVaccines(n)...); err != nil {
		return err
	}
	d := reg.Delta(0)

	// The JSON body in the exact form the server writes (json.Encoder,
	// trailing newline) so the byte comparison matches the wire.
	var jsonBody bytes.Buffer
	if err := json.NewEncoder(&jsonBody).Encode(d); err != nil {
		return err
	}
	binBody, err := fleet.EncodeDeltaBinary(d)
	if err != nil {
		return err
	}

	row := func(name string, body int, fn func(b *testing.B)) fleetCodecRow {
		r := testing.Benchmark(fn)
		out := fleetCodecRow{
			Name: fmt.Sprintf("%s/%dvaccines", name, n), N: r.N,
			NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp(), BodyBytes: body,
		}
		rep.Codec = append(rep.Codec, out)
		return out
	}

	encJSON := row("DeltaEncode/json", jsonBody.Len(), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("DeltaEncode/binary", len(binBody), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fleet.EncodeDeltaBinary(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	decJSON := row("DeltaDecode/json", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fleet.DecodeDeltaJSON(jsonBody.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("DeltaDecode/binary", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fleet.DecodeDeltaBinary(binBody); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Baseline the binary rows on the JSON ones just measured.
	enc := &rep.Codec[len(rep.Codec)-3]
	enc.BaselineNsPerOp, enc.BaselineBodyBytes = encJSON.NsPerOp, encJSON.BodyBytes
	if enc.NsPerOp > 0 {
		enc.Speedup = encJSON.NsPerOp / enc.NsPerOp
	}
	if enc.BodyBytes > 0 {
		enc.Shrink = float64(encJSON.BodyBytes) / float64(enc.BodyBytes)
	}
	dec := &rep.Codec[len(rep.Codec)-1]
	dec.BaselineNsPerOp = decJSON.NsPerOp
	if dec.NsPerOp > 0 {
		dec.Speedup = decJSON.NsPerOp / dec.NsPerOp
	}
	return nil
}

// loadFleetBaseline reads a previously committed BENCH_fleet.json, or
// returns nil when none exists (first run).
func loadFleetBaseline(path string) *fleetReport {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep fleetReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil
	}
	return &rep
}

// runFleetCodecBench is the -bench mode's fleet section: re-measure
// the delta codec and report against the committed BENCH_fleet.json
// baselines, the way the emulator rows report against the seed tree.
func runFleetCodecBench(baselinePath string) error {
	rep := &fleetReport{}
	for _, n := range []int{64, 8} {
		if err := measureCodec(rep, n); err != nil {
			return err
		}
	}
	base := loadFleetBaseline(baselinePath)
	baseNs := map[string]float64{}
	if base != nil {
		for _, r := range base.Codec {
			baseNs[r.Name] = r.NsPerOp
		}
	}
	fmt.Println("fleet delta codec (vs committed BENCH_fleet.json baseline):")
	fmt.Printf("%-28s %12s %12s %12s\n", "benchmark", "ns/op", "baseline", "ratio")
	for _, r := range rep.Codec {
		bl, ratio := "-", "-"
		if b, ok := baseNs[r.Name]; ok && r.NsPerOp > 0 {
			bl = fmt.Sprintf("%.0f", b)
			ratio = fmt.Sprintf("%.2fx", b/r.NsPerOp)
		}
		fmt.Printf("%-28s %12.0f %12s %12s\n", r.Name, r.NsPerOp, bl, ratio)
	}
	fmt.Println()
	return nil
}

// runFleetBench runs the codec micro-benchmarks and the control-plane
// study, prints both, and writes the combined BENCH_fleet.json.
func runFleetBench(ctx context.Context, hosts, relays int, seed int64, outPath string) error {
	rep := &fleetReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		Seed:     seed,
		Baseline: "JSON delta codec over the same fleet (pre-codec wire format)",
	}

	// Micro: the codec at the two pack sizes that matter — a full
	// first-sync pack and the 8-vaccine incremental wave.
	for _, n := range []int{64, 8} {
		if err := measureCodec(rep, n); err != nil {
			return err
		}
	}
	fmt.Println("delta codec (JSON baseline vs binary):")
	fmt.Printf("%-28s %12s %12s %12s %8s %8s\n",
		"benchmark", "ns/op", "allocs/op", "body-bytes", "speedup", "shrink")
	for _, r := range rep.Codec {
		body, speed, shrink := "-", "-", "-"
		if r.BodyBytes > 0 {
			body = fmt.Sprint(r.BodyBytes)
		}
		if r.Speedup > 0 {
			speed = fmt.Sprintf("%.2fx", r.Speedup)
		}
		if r.Shrink > 0 {
			shrink = fmt.Sprintf("%.2fx", r.Shrink)
		}
		fmt.Printf("%-28s %12.0f %12d %12s %8s %8s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, body, speed, shrink)
	}
	fmt.Println()

	// Macro: the convergence study itself.
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
