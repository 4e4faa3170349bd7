package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Relay is a read-through edge node of the distribution tree: it
// long-polls one upstream server (the origin, or another relay) for
// binary deltas, mirrors the origin's exact version line into its own
// in-memory Registry, and serves the full /v1/packs surface — ETags,
// 304s, long-poll parking, Reset resync, the encode cache — to the
// agents behind it through an ordinary Server. Agents cannot tell a
// relay from the origin; the origin sees one long-poll client per
// relay instead of one per agent, which is what lets the control plane
// fan out to ~10^6 agents without the origin's request rate scaling
// past the relay count.
//
// Version mirroring is exact, not re-issued: the binary delta codec
// carries each vaccine's origin publish version (DeltaResponse.Versions)
// and the relay applies them verbatim, with the upstream fence, through
// the WAL replay path (applyRecords). A cursor an agent obtained from
// one relay therefore means the same thing at every other relay and at
// the origin. The binary codec is
// required upstream for this reason — JSON deltas do not carry the
// version line — so a relay pointed at a pre-codec server fails fast
// rather than mirroring wrongly.
//
// Reset propagation: when the upstream's version line restarts below
// the relay's cursor (origin restarted without its WAL), the upstream
// answers with a Reset delta; the relay wipes its mirror and re-applies
// the upstream content in one critical section, and its own downstream
// agents — now ahead of the rewound mirror — hit the
// since-ahead-of-registry path on their next poll and receive Reset
// deltas in turn. The rebase cascades down
// the tree with no side channel.
type Relay struct {
	cfg  RelayConfig
	reg  *Registry
	srv  *Server
	sync *syncClient
}

// RelayConfig configures one relay node.
type RelayConfig struct {
	// Upstream is the upstream server's base URL, e.g.
	// "http://origin:8377". Required.
	Upstream string
	// Client is the HTTP client for upstream fetches (default
	// http.DefaultClient).
	Client *http.Client
	// LongPoll is how long each upstream fetch parks (&wait=); default
	// MaxLongPollWait. The upstream caps it at its own MaxLongPollWait.
	LongPoll time.Duration
	// Seed feeds the backoff jitter.
	Seed uint64
}

// RelayStats counts one relay's upstream sync activity.
type RelayStats struct {
	// Syncs counts completed upstream round trips (deltas and 304s).
	Syncs int
	// Deltas counts 200 upstream responses applied to the mirror;
	// NotModified counts 304s (long-poll waits that expired quietly).
	Deltas      int
	NotModified int
	// Resyncs counts upstream Reset rebases (mirror wiped and rebuilt).
	Resyncs int
	// Errors counts failed upstream round trips (after retries) that
	// Run absorbed and retried.
	Errors int
}

// NewRelay creates a relay mirroring the given upstream. Call Run to
// start the sync loop and serve Handler to downstream agents.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("fleet: relay: empty upstream URL")
	}
	if cfg.LongPoll <= 0 {
		cfg.LongPoll = MaxLongPollWait
	}
	cfg.Upstream = strings.TrimRight(cfg.Upstream, "/")
	reg := NewRegistry(0)
	rl := &Relay{cfg: cfg, reg: reg, srv: NewServer(reg)}
	rl.sync = newSyncClient(cfg.Client, cfg.Upstream, cfg.LongPoll, true,
		int64(cfg.Seed)^int64(fnv32a(cfg.Upstream)), rl.mirror)
	return rl, nil
}

// Handler returns the relay's downstream HTTP handler — the full sync
// protocol served from the mirror.
func (rl *Relay) Handler() http.Handler { return rl.srv.Handler() }

// Server returns the relay's downstream server (for metrics).
func (rl *Relay) Server() *Server { return rl.srv }

// Registry returns the relay's mirror registry.
func (rl *Relay) Registry() *Registry { return rl.reg }

// Version returns the latest upstream version the relay has mirrored.
// Safe to call from any goroutine.
func (rl *Relay) Version() uint64 { return rl.sync.Version() }

// Stats returns the relay's upstream sync counters. Safe to call from
// any goroutine.
func (rl *Relay) Stats() RelayStats {
	c := rl.sync.counters()
	return RelayStats{Syncs: c.syncs, Deltas: c.deltas, NotModified: c.notModified,
		Resyncs: c.resyncs, Errors: c.errors}
}

// SyncOnce performs one upstream sync round: long-poll the upstream
// for a binary delta past the mirrored cursor (with retries) and
// mirror it. It returns the number of vaccines applied (0 for a 304).
// SyncOnce and Run must be driven from one goroutine.
func (rl *Relay) SyncOnce(ctx context.Context) (int, error) {
	n, err := rl.sync.sync(ctx)
	if err != nil {
		return 0, fmt.Errorf("fleet: relay: upstream %s: %w", rl.cfg.Upstream, err)
	}
	return n, nil
}

// mirror is the relay's apply: it mirrors one upstream delta into the
// local registry in one critical section, so a downstream read never
// sees it half applied, and wakes the downstream long-pollers.
func (rl *Relay) mirror(d *DeltaResponse) (int, error) {
	if len(d.Versions) != len(d.Vaccines) {
		// Only the binary codec carries the per-vaccine version line; a
		// JSON delta with content would have to be renumbered, forking
		// the version space. Refuse loudly. (An empty delta has nothing
		// to renumber.)
		return 0, fmt.Errorf("delta carries %d versions for %d vaccines: the upstream does not speak the binary delta codec",
			len(d.Versions), len(d.Vaccines))
	}
	recs := make([]walRecord, len(d.Vaccines))
	for i, v := range d.Versions {
		// Delta emits an ascending line within (Since, Version].
		if v <= d.Since || v > d.Version || i > 0 && v <= d.Versions[i-1] {
			return 0, fmt.Errorf("delta version line is not ascending within (%d, %d]", d.Since, d.Version)
		}
		recs[i] = walRecord{Version: v, Vaccine: d.Vaccines[i]}
	}
	rl.reg.applyRecords(recs, d.Version, d.Reset)
	rl.reg.SetGenerator(d.Generator)
	rl.reg.notify.wake()
	return len(d.Vaccines), nil
}

// Run long-polls the upstream until the context is cancelled. Failed
// rounds are counted in Stats().Errors and retried after a backoff;
// success re-polls at once (the park happens server-side).
func (rl *Relay) Run(ctx context.Context) error {
	rl.sync.run(ctx, 0, func(ctx context.Context) error {
		_, err := rl.SyncOnce(ctx)
		return err
	})
	return nil
}
