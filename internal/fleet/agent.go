package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"autovac/internal/deploy"
	"autovac/internal/winenv"
)

// AgentConfig configures one host agent.
type AgentConfig struct {
	// BaseURL is the vacserver root, e.g. "http://10.0.0.1:8377".
	BaseURL string
	// Host is this host's identifier in check-ins; defaults to the
	// environment's computer name.
	Host string
	// Env is the host environment vaccines are installed into.
	Env *winenv.Env
	// Seed feeds slice replay (deploy.ResolveIdentifier) and the
	// backoff jitter.
	Seed uint64
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Binary, when set, negotiates the binary delta codec (Accept:
	// application/x-autovac-delta). The server's Content-Type decides
	// the decode on each response, so a JSON-only server (or a JSON
	// intermediary cache) degrades transparently to the JSON protocol.
	Binary bool
	// MaxRetries bounds the retries of one failed sync round trip.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the jittered exponential
	// backoff between retries.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// LongPoll, when > 0, switches pack fetches to streaming mode: the
	// request parks on the server (&wait=) for up to this long and
	// returns the instant a publish lands, so deltas arrive at publish
	// latency instead of poll latency. Run then re-polls immediately
	// after each cycle; the poll interval only paces plain polling.
	LongPoll time.Duration
}

// AgentStats counts one agent's sync activity. Read it from the
// agent's own goroutine (Agent is not safe for concurrent use).
type AgentStats struct {
	// Syncs counts completed SyncOnce calls.
	Syncs int
	// Deltas counts 200 pack responses; NotModified counts 304s.
	Deltas      int
	NotModified int
	// Retries counts failed round trips that were retried.
	Retries int
	// DecodeErrors counts 200 pack responses whose body failed to
	// decode or validate (truncated frame, wrong encoding, garbage from
	// an intermediary). Each is a retryable sync error: the agent backs
	// off and re-fetches rather than poisoning its cursor.
	DecodeErrors int
	// Applied, Skipped, and Failed total the daemon install results.
	Applied int
	Skipped int
	Failed  int
	// Resyncs counts Reset deltas adopted (the server's version line
	// restarted below ours).
	Resyncs int
	// Checkins counts delivered heartbeats.
	Checkins int
}

// Agent is a host-side fleet client: it polls the server for vaccine
// deltas through the shared sync client (jittered exponential backoff,
// decode and validation, Reset rebase), installs them through the
// host's deploy daemon (which resolves identifiers per host, replaying
// slices for algorithm-deterministic vaccines), and heartbeats the
// applied version back. An Agent is single-goroutine; run many agents
// for many hosts.
//
// Concurrency contract: every mutable field — the sync client's
// cursor, its rng, and the install counters — is owned by the goroutine
// driving SyncOnce or Run. The retry backoff (after a failed fetch or
// checkin) and the poll-loop jitter both draw from the client's rng,
// but always from that one goroutine: checkins are performed inline in
// SyncOnce, never from a separate goroutine, so the rng is never
// reached concurrently. TestAgentRNGOwnership pins this under -race.
type Agent struct {
	cfg    AgentConfig
	daemon *deploy.Daemon
	sync   *syncClient
	// stats holds the install and check-in counters; the protocol
	// counters live in sync.
	stats AgentStats
}

// NewAgent creates an agent bound to a host environment.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Host == "" && cfg.Env != nil {
		cfg.Host = cfg.Env.Identity().ComputerName
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	a := &Agent{cfg: cfg, daemon: deploy.NewDaemon(cfg.Env, cfg.Seed)}
	a.sync = newSyncClient(cfg.Client, cfg.BaseURL, cfg.LongPoll, cfg.Binary,
		int64(cfg.Seed)^int64(fnv32a(cfg.Host)), a.install)
	if cfg.MaxRetries > 0 {
		a.sync.maxRetries = cfg.MaxRetries
	}
	if cfg.BaseBackoff > 0 {
		a.sync.baseBackoff = cfg.BaseBackoff
	}
	if cfg.MaxBackoff > 0 {
		a.sync.maxBackoff = cfg.MaxBackoff
	}
	return a
}

// Version returns the latest registry version the agent has applied.
func (a *Agent) Version() uint64 { return a.sync.Version() }

// Stats returns the agent's sync counters.
func (a *Agent) Stats() AgentStats {
	st, c := a.stats, a.sync.counters()
	st.Syncs, st.Deltas, st.NotModified = c.syncs, c.deltas, c.notModified
	st.Retries, st.DecodeErrors, st.Resyncs = c.retries, c.decodeErrors, c.resyncs
	return st
}

// Daemon returns the host's vaccine daemon.
func (a *Agent) Daemon() *deploy.Daemon { return a.daemon }

// Env returns the host environment.
func (a *Agent) Env() *winenv.Env { return a.cfg.Env }

// Host returns the agent's check-in identifier.
func (a *Agent) Host() string { return a.cfg.Host }

// install is the agent's apply: it installs a delta's vaccines through
// the host daemon. On a Reset the installed vaccines stay installed
// (immunization is additive); only the sync cursor moves back.
func (a *Agent) install(d *DeltaResponse) (int, error) {
	installed, skipped, failed := a.daemon.InstallPack(d.Vaccines)
	a.stats.Applied += installed
	a.stats.Skipped += skipped
	a.stats.Failed += failed
	return installed, nil
}

// checkin delivers one heartbeat.
func (a *Agent) checkin(ctx context.Context) error {
	inspected, intercepted := a.daemon.Stats()
	body, err := json.Marshal(CheckinRequest{
		Host:        a.cfg.Host,
		Version:     a.Version(),
		Installed:   a.daemon.VaccineCount(),
		Inspected:   inspected,
		Intercepted: intercepted,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.cfg.BaseURL+PathCheckin, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, _, err := a.sync.do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkin: %s", resp.Status)
	}
	a.stats.Checkins++
	return nil
}

// SyncOnce performs one sync cycle: fetch the delta since the applied
// version (with retries), install any new vaccines through the host
// daemon, and heartbeat the result. It returns the number of vaccines
// newly installed.
func (a *Agent) SyncOnce(ctx context.Context) (int, error) {
	applied, err := a.sync.sync(ctx)
	if err == nil {
		err = a.sync.retry(ctx, func() error { return a.checkin(ctx) })
	}
	if err != nil {
		return applied, fmt.Errorf("fleet: agent %s: %w", a.cfg.Host, err)
	}
	return applied, nil
}

// Run polls until the context is cancelled, sleeping interval (with
// ±50% jitter, floored at minJitterInterval so a zero or negative
// interval cannot panic the jitter draw) between sync cycles. With
// LongPoll configured the park happens server-side inside SyncOnce, so
// a successful cycle re-polls at once — deltas then arrive at publish
// latency. A failed cycle is followed by at least a saturated backoff
// and the loop continues; the only exit is context cancellation, which
// returns nil.
func (a *Agent) Run(ctx context.Context, interval time.Duration) error {
	a.sync.run(ctx, interval, func(ctx context.Context) error {
		_, err := a.SyncOnce(ctx)
		return err
	})
	return nil
}
