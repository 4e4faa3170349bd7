package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/determinism"
	"autovac/internal/impact"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// Control-plane scale simulation: how fast does a publish reach N
// hosts, and what does the transport cost? Unlike Simulate (which runs
// full agents with real host environments and deploy daemons over a
// loopback listener), each host here is the shipped sync client —
// the same cursor, request, decode, validation, backoff and poll loop
// Agent and Relay run — with an apply that only records the applied
// version and time, and the exchanges run over an in-process transport
// that invokes the server handler directly. No TCP, no file
// descriptors, no daemons: the per-host cost is one goroutine, so
// fleets of 100k–1M hosts fit in one process and the measurement
// isolates the control plane (registry, handler, long-poll
// broadcaster) instead of the emulation stack.

// ControlPlaneConfig configures SimulateControlPlane.
type ControlPlaneConfig struct {
	// Hosts is the number of simulated sync agents (default 1000).
	Hosts int
	// Waves is the number of publishes measured (default 3). Each wave
	// is published only after every host converged on the previous one.
	Waves int
	// VaccinesPerWave is the publish batch size (default 1).
	VaccinesPerWave int
	// PollInterval is the plain-polling cadence (default 200ms). Each
	// agent polls at this fixed interval from a random initial phase.
	PollInterval time.Duration
	// LongPoll, when > 0, switches every agent to long-polling with
	// this wait instead of interval polling.
	LongPoll time.Duration
	// Relays, when > 0, inserts a tier of that many read-through edge
	// relays between the origin and the agents: each relay long-polls
	// the origin for binary deltas and serves its share of the fleet
	// (round-robin) from its mirror. With Relays == 0 every agent talks
	// to the origin directly.
	Relays int
	// Binary makes the agents negotiate the binary delta codec
	// (Accept: application/x-autovac-delta); relays always use it
	// upstream regardless.
	Binary bool
	// Seed drives the per-agent phase jitter.
	Seed uint64
	// ConvergeTimeout bounds one wave's convergence (default 60s);
	// exceeding it fails the simulation — the control plane is wedged.
	ConvergeTimeout time.Duration
}

// ControlPlaneResult is the outcome of one control-plane simulation.
type ControlPlaneResult struct {
	// Hosts and Waves echo the configuration; LongPoll, Relays, and
	// Binary record the measured mode.
	Hosts, Waves int
	LongPoll     bool
	Relays       int
	Binary       bool
	// ConvergeTime is the worst wave's convergence time: publish until
	// the last host applied it.
	ConvergeTime time.Duration
	// WaveConverge is the per-wave convergence time.
	WaveConverge []time.Duration
	// SyncP50 and SyncP99 are quantiles of per-host sync latency
	// (publish until that host applied the delta), across all waves.
	SyncP50, SyncP99 time.Duration
	// Requests counts every HTTP exchange the fleet performed.
	Requests uint64
	// BytesOnWire estimates the transport cost of those exchanges:
	// request line and headers, status line and response headers, and
	// bodies — what the same traffic would put on a TCP wire. (The
	// in-process transport never serialises HTTP framing, so this is
	// reconstructed from the request/response objects.)
	BytesOnWire uint64
	// Deltas and NotModified count 200 and 304 pack responses seen by
	// agents; DecodeErrors counts malformed delta bodies they survived.
	Deltas, NotModified uint64
	DecodeErrors        uint64
	// OriginRequests counts HTTP requests the origin served. With a
	// relay tier it scales with the relay count, not the agent count —
	// the point of the tier. EdgeRequests totals the relay servers'
	// request counts (agent traffic absorbed at the edge).
	OriginRequests uint64
	EdgeRequests   uint64
	// Server is the origin server's final metrics snapshot.
	Server MetricsSnapshot
}

// memTransport invokes an http.Handler in the caller's goroutine — the
// in-process equivalent of a TCP round trip. A long-poll request parks
// the calling goroutine inside the handler, exactly like a parked
// connection, without a second goroutine or a socket. It counts the
// exchanges it carries and their estimated bytes on the wire.
type memTransport struct {
	h               http.Handler
	requests, bytes atomic.Uint64
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err // as a real transport fails a cancelled request
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	t.requests.Add(1)
	t.bytes.Add(wireBytes(req, resp, rec.Body.Len()))
	return resp, nil
}

// wireBytes estimates the on-wire size of one HTTP exchange: request
// line + headers, status line + headers, and the response body. The
// framing is reconstructed from the actual headers of this exchange —
// whatever Content-Type/Content-Encoding the server negotiated rides
// at its real size, so codec savings are not misreported by assuming
// JSON framing. Headers a real server would add but the in-process
// handler did not (Content-Length on a body-carrying response, Date)
// are synthesized at representative size, identically for every
// encoding.
func wireBytes(req *http.Request, resp *http.Response, body int) uint64 {
	n := len(req.Method) + 1 + len(req.URL.RequestURI()) + len(" HTTP/1.1\r\n") + 2
	for k, vs := range req.Header {
		for _, v := range vs {
			n += len(k) + 2 + len(v) + 2
		}
	}
	n += len("HTTP/1.1 ") + len(resp.Status) + 2 + 2
	for k, vs := range resp.Header {
		for _, v := range vs {
			n += len(k) + 2 + len(v) + 2
		}
	}
	if body > 0 && resp.Header.Get("Content-Length") == "" {
		n += len("Content-Length: ") + len(fmt.Sprint(body)) + 2
	}
	n += len("Date: Mon, 02 Jan 2006 15:04:05 GMT") + 2
	return uint64(n + body)
}

// simHost is one simulated host: the sync client plus the
// cross-goroutine convergence signal the publisher reads.
type simHost struct {
	sync       *syncClient
	applyNanos atomic.Int64
	appliedVer atomic.Uint64
}

// record is the host's apply: install is a no-op — the measurement is
// the control plane, not the deploy daemon — so it records when which
// version arrived.
func (h *simHost) record(d *DeltaResponse) (int, error) {
	h.applyNanos.Store(time.Now().UnixNano())
	h.appliedVer.Store(d.Version)
	return len(d.Vaccines), nil
}

// controlPlaneVaccine builds the minimal valid static vaccine the
// scale harness publishes; distinct identifiers keep every publish a
// real version bump.
func controlPlaneVaccine(wave, i int) vaccine.Vaccine {
	return vaccine.Vaccine{
		ID:         fmt.Sprintf("cp/w%d/mutex/%d", wave, i),
		Sample:     "controlplane",
		Resource:   winenv.KindMutex,
		Identifier: fmt.Sprintf("CP-W%02d-MARKER-%04d", wave, i),
		Class:      determinism.Static,
		Op:         "create",
		API:        "CreateMutexA",
		Effect:     impact.Full,
		Polarity:   vaccine.SimulatePresence,
		Delivery:   vaccine.DirectInjection,
	}
}

// SimulateControlPlane measures vaccine distribution at fleet scale:
// it publishes cfg.Waves packs into a fresh registry and, for each,
// measures how long the full fleet takes to observe it, the per-host
// sync latency distribution, and the transport bytes spent — under
// plain polling or long-poll streaming. The harness is wall-clock
// honest: agents really poll (or really park) and the publisher only
// advances when every host's applied version has caught up.
func SimulateControlPlane(ctx context.Context, cfg ControlPlaneConfig) (*ControlPlaneResult, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1000
	}
	if cfg.Waves <= 0 {
		cfg.Waves = 3
	}
	if cfg.VaccinesPerWave <= 0 {
		cfg.VaccinesPerWave = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.ConvergeTimeout <= 0 {
		cfg.ConvergeTimeout = 60 * time.Second
	}

	reg := NewRegistry(0)
	reg.SetGenerator("controlplane")
	srv := NewServer(reg)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var hostPanic atomic.Pointer[string]
	// spawn runs one fleet member's loop; a panic in it fails the
	// simulation instead of the process.
	spawn := func(what string, loop func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					msg := fmt.Sprintf("fleet: control-plane %s panic: %v\n%s", what, r, debug.Stack())
					hostPanic.CompareAndSwap(nil, &msg)
					cancel()
				}
			}()
			loop()
		}()
	}

	// With a relay tier, hosts talk to their relay's in-process
	// handler; the origin sees only the relays' long-poll clients,
	// whose traffic is not counted as the fleet's.
	relays := make([]*Relay, cfg.Relays)
	downstream := []*memTransport{{h: srv.Handler()}}
	if cfg.Relays > 0 {
		upstream := &http.Client{Transport: &memTransport{h: srv.Handler()}}
		downstream = downstream[:0]
		for i := range relays {
			rl, err := NewRelay(RelayConfig{
				Upstream: "http://origin.sim",
				Client:   upstream,
				Seed:     cfg.Seed + uint64(i)*7919,
			})
			if err != nil {
				cancel()
				wg.Wait()
				return nil, err
			}
			relays[i] = rl
			downstream = append(downstream, &memTransport{h: rl.Handler()})
			spawn("relay", func() { rl.Run(runCtx) })
		}
	}
	clients := make([]*http.Client, len(downstream))
	for i, t := range downstream {
		clients[i] = &http.Client{Transport: t}
	}

	// Build the whole fleet before starting it, so no host polls while
	// the rest are still being set up.
	hosts := make([]*simHost, cfg.Hosts)
	for i := range hosts {
		h := &simHost{}
		h.sync = newSyncClient(clients[i%len(clients)], "http://controlplane.sim",
			cfg.LongPoll, cfg.Binary, int64(cfg.Seed)+int64(i), h.record)
		hosts[i] = h
	}
	for _, h := range hosts {
		spawn("agent", func() {
			h.sync.run(runCtx, cfg.PollInterval, func(ctx context.Context) error {
				_, err := h.sync.sync(ctx)
				return err
			})
		})
	}

	res := &ControlPlaneResult{
		Hosts: cfg.Hosts, Waves: cfg.Waves,
		LongPoll: cfg.LongPoll > 0, Relays: cfg.Relays, Binary: cfg.Binary,
	}
	var hist latencyHist
	remaining := make([]int, 0, cfg.Hosts)
	for wave := 0; wave < cfg.Waves; wave++ {
		vs := make([]vaccine.Vaccine, cfg.VaccinesPerWave)
		for i := range vs {
			vs[i] = controlPlaneVaccine(wave, i)
		}
		target, _, err := reg.Publish(vs...)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		t0 := time.Now()
		t0n := t0.UnixNano()
		remaining = remaining[:0]
		for i := range hosts {
			remaining = append(remaining, i)
		}
		waveMax := time.Duration(0)
		for len(remaining) > 0 {
			if p := hostPanic.Load(); p != nil {
				wg.Wait()
				return nil, fmt.Errorf("%s", *p)
			}
			if time.Since(t0) > cfg.ConvergeTimeout {
				cancel()
				wg.Wait()
				return nil, fmt.Errorf("fleet: control plane stalled: %d/%d hosts short of version %d after %v",
					len(remaining), cfg.Hosts, target, cfg.ConvergeTimeout)
			}
			keep := remaining[:0]
			for _, idx := range remaining {
				h := hosts[idx]
				if h.appliedVer.Load() >= target {
					lat := time.Duration(h.applyNanos.Load() - t0n)
					if lat < 0 {
						lat = 0
					}
					hist.observe(lat)
					if lat > waveMax {
						waveMax = lat
					}
					continue
				}
				keep = append(keep, idx)
			}
			remaining = keep
			if len(remaining) > 0 {
				time.Sleep(time.Millisecond)
			}
		}
		res.WaveConverge = append(res.WaveConverge, waveMax)
		if waveMax > res.ConvergeTime {
			res.ConvergeTime = waveMax
		}
	}
	cancel()
	wg.Wait()
	if p := hostPanic.Load(); p != nil {
		return nil, fmt.Errorf("%s", *p)
	}

	for _, h := range hosts {
		st := h.sync.counters()
		res.Deltas += uint64(st.deltas)
		res.NotModified += uint64(st.notModified)
		res.DecodeErrors += uint64(st.decodeErrors)
	}
	for _, t := range downstream {
		res.Requests += t.requests.Load()
		res.BytesOnWire += t.bytes.Load()
	}
	res.SyncP50 = hist.quantile(0.50)
	res.SyncP99 = hist.quantile(0.99)
	res.Server = srv.MetricsSnapshot()
	res.OriginRequests = res.Server.Requests
	for _, rl := range relays {
		res.EdgeRequests += rl.Server().MetricsSnapshot().Requests
	}
	return res, nil
}
