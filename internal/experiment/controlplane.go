package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"autovac/internal/fleet"
)

// The control-plane study measures vaccine *distribution* at fleet
// scale, independent of the emulation stack: how long after a publish
// does the last of N hosts hold the pack, what is the per-host sync
// latency distribution, and what does the fleet's polling traffic cost
// on the wire? It runs the same fleet under several transports so the
// table is a direct ablation of each distribution layer:
//
//   - interval polling vs long-poll streaming (the push path),
//   - JSON vs the binary delta codec (bytes on the wire),
//   - direct origin fan-out vs a tier of read-through edge relays
//     (origin load at very large fleets).

// ControlPlaneConfig configures the distribution study.
type ControlPlaneConfig struct {
	// Hosts is the fleet size (default 100000).
	Hosts int
	// Waves is the number of measured publishes (default 3).
	Waves int
	// VaccinesPerWave is the publish batch size (default 8 — a realistic
	// incremental pack, and big enough that encoding efficiency shows).
	VaccinesPerWave int
	// PollInterval is the plain-polling cadence (default 2s — a
	// realistic fleet-agent interval; the point of the study is what
	// that cadence costs relative to streaming).
	PollInterval time.Duration
	// LongPoll is the streaming wait (default 30s).
	LongPoll time.Duration
	// Relays, when > 0, switches the study to the two-tier topology:
	// that many edge relays between the origin and the fleet. The rows
	// become relay/json and relay/binary (both long-poll — a relay tier
	// exists to hold parked connections, so interval polling through it
	// measures nothing new).
	Relays int
	// ConvergeTimeout bounds each wave's convergence (default scales
	// with fleet size; a 1M-host run on few cores needs minutes).
	ConvergeTimeout time.Duration
	// Seed drives agent phase jitter.
	Seed uint64
}

// ControlPlaneRow is one sync mode's measured outcome.
type ControlPlaneRow struct {
	// Mode names the transport: "poll/json", "long-poll/json",
	// "long-poll/binary", "relay/json", "relay/binary".
	Mode string
	// Result is the raw simulation outcome.
	Result *fleet.ControlPlaneResult
}

// ControlPlaneReport is the full study.
type ControlPlaneReport struct {
	// Hosts, Waves, VaccinesPerWave, Relays, and PollInterval echo the
	// configuration.
	Hosts, Waves, VaccinesPerWave, Relays int
	PollInterval                          time.Duration
	// Rows holds one row per measured transport.
	Rows []ControlPlaneRow
}

// RunControlPlane races the sync modes over identical fleets. With
// cfg.Relays == 0 it measures poll/json, long-poll/json, and
// long-poll/binary against the origin directly; with cfg.Relays > 0 it
// measures relay/json and relay/binary through the two-tier topology.
func RunControlPlane(ctx context.Context, cfg ControlPlaneConfig) (*ControlPlaneReport, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 100000
	}
	if cfg.Waves <= 0 {
		cfg.Waves = 3
	}
	if cfg.VaccinesPerWave <= 0 {
		cfg.VaccinesPerWave = 8
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	if cfg.LongPoll <= 0 {
		cfg.LongPoll = 30 * time.Second
	}
	if cfg.ConvergeTimeout <= 0 {
		// Convergence is CPU-bound in-process: scale the bound with the
		// fleet rather than wedging large runs on small machines.
		cfg.ConvergeTimeout = 60*time.Second + time.Duration(cfg.Hosts/1000)*time.Second
	}

	base := fleet.ControlPlaneConfig{
		Hosts:           cfg.Hosts,
		Waves:           cfg.Waves,
		VaccinesPerWave: cfg.VaccinesPerWave,
		PollInterval:    cfg.PollInterval,
		ConvergeTimeout: cfg.ConvergeTimeout,
		Seed:            cfg.Seed,
	}
	rep := &ControlPlaneReport{
		Hosts: cfg.Hosts, Waves: cfg.Waves,
		VaccinesPerWave: cfg.VaccinesPerWave, Relays: cfg.Relays,
		PollInterval: cfg.PollInterval,
	}

	var modes []struct {
		name   string
		mutate func(*fleet.ControlPlaneConfig)
	}
	if cfg.Relays > 0 {
		modes = []struct {
			name   string
			mutate func(*fleet.ControlPlaneConfig)
		}{
			{"relay/json", func(c *fleet.ControlPlaneConfig) {
				c.LongPoll, c.Relays = cfg.LongPoll, cfg.Relays
			}},
			{"relay/binary", func(c *fleet.ControlPlaneConfig) {
				c.LongPoll, c.Relays, c.Binary = cfg.LongPoll, cfg.Relays, true
			}},
		}
	} else {
		modes = []struct {
			name   string
			mutate func(*fleet.ControlPlaneConfig)
		}{
			{"poll/json", func(c *fleet.ControlPlaneConfig) {}},
			{"long-poll/json", func(c *fleet.ControlPlaneConfig) { c.LongPoll = cfg.LongPoll }},
			{"long-poll/binary", func(c *fleet.ControlPlaneConfig) {
				c.LongPoll, c.Binary = cfg.LongPoll, true
			}},
		}
	}
	for _, m := range modes {
		mc := base
		m.mutate(&mc)
		res, err := fleet.SimulateControlPlane(ctx, mc)
		if err != nil {
			return nil, fmt.Errorf("experiment: control plane (%s): %w", m.name, err)
		}
		rep.Rows = append(rep.Rows, ControlPlaneRow{Mode: m.name, Result: res})
	}
	return rep, nil
}

// findRow returns the first row whose mode matches, or nil.
func (rep *ControlPlaneReport) findRow(mode string) *fleet.ControlPlaneResult {
	for _, row := range rep.Rows {
		if row.Mode == mode {
			return row.Result
		}
	}
	return nil
}

// RenderControlPlane renders the study as a text table.
func RenderControlPlane(rep *ControlPlaneReport) string {
	var b strings.Builder
	b.WriteString("Control plane — delta distribution at fleet scale\n")
	fmt.Fprintf(&b, "%d hosts, %d publish waves x %d vaccines; poll interval %v",
		rep.Hosts, rep.Waves, rep.VaccinesPerWave, rep.PollInterval)
	if rep.Relays > 0 {
		fmt.Fprintf(&b, "; %d edge relays", rep.Relays)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s %11s %14s %10s\n",
		"mode", "converge", "p50", "p99", "requests", "origin-req", "bytes", "deltas")
	for _, row := range rep.Rows {
		r := row.Result
		fmt.Fprintf(&b, "%-16s %10v %10v %10v %10d %11d %14d %10d\n",
			row.Mode,
			round3(r.ConvergeTime), round3(r.SyncP50), round3(r.SyncP99),
			r.Requests, r.OriginRequests, r.BytesOnWire, r.Deltas)
	}

	if p, s := rep.findRow("poll/json"), rep.findRow("long-poll/json"); p != nil && s != nil &&
		p.ConvergeTime > 0 && s.BytesOnWire > 0 {
		fmt.Fprintf(&b, "long-poll: %.1fx faster convergence, %.1fx fewer bytes on wire than polling\n",
			float64(p.ConvergeTime)/float64(maxDuration(s.ConvergeTime, time.Millisecond)),
			float64(p.BytesOnWire)/float64(s.BytesOnWire))
	}
	js, bin := rep.findRow("long-poll/json"), rep.findRow("long-poll/binary")
	if js == nil {
		js, bin = rep.findRow("relay/json"), rep.findRow("relay/binary")
	}
	if js != nil && bin != nil && bin.BytesOnWire > 0 {
		fmt.Fprintf(&b, "binary codec: %.1fx fewer bytes on wire than JSON\n",
			float64(js.BytesOnWire)/float64(bin.BytesOnWire))
	}
	if rel := rep.findRow("relay/binary"); rel != nil && rel.Relays > 0 {
		fmt.Fprintf(&b, "relay tier: origin served %d requests for %d agents (%.1f per relay per wave); edge absorbed %d\n",
			rel.OriginRequests, rel.Hosts,
			float64(rel.OriginRequests)/float64(rel.Relays*rel.Waves),
			rel.EdgeRequests)
	}
	return b.String()
}

// maxDuration floors a duration for safe ratio rendering.
func maxDuration(d, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}
