package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"autovac/internal/vaccine"
)

// DefaultActiveWindow is how recently a host must have checked in to
// count as active in metrics and fleet status.
const DefaultActiveWindow = 2 * time.Minute

// checkinBodyLimit bounds heartbeat bodies; a CheckinRequest is a few
// hundred bytes.
const checkinBodyLimit = 1 << 16

// MaxLongPollWait caps the wait= parameter on GET /v1/packs: however
// long the client asks to park, the server answers (with a 304 if
// nothing was published) within this bound, so parked requests cannot
// outlive proxies' idle timeouts or pile up across agent restarts.
const MaxLongPollWait = 60 * time.Second

// Server serves the sync protocol for one registry.
type Server struct {
	reg     *Registry
	metrics *Metrics
	mux     *http.ServeMux
	// cache memoises encoded delta bodies per (since, version,
	// encoding), so a publish waking N parked long-pollers at the same
	// cursor costs one delta copy and one encode, not N.
	cache *deltaCache
	// ActiveWindow is the heartbeat freshness window for fleet
	// status; set before serving (default DefaultActiveWindow).
	ActiveWindow time.Duration
	// now is the clock, injectable for tests.
	now func() time.Time
	// drain is closed by Drain: parked long-polls return at once.
	drain     chan struct{}
	drainOnce sync.Once
}

// NewServer creates a sync server over a registry.
func NewServer(reg *Registry) *Server {
	s := &Server{
		reg:          reg,
		metrics:      &Metrics{},
		mux:          http.NewServeMux(),
		cache:        newDeltaCache(),
		ActiveWindow: DefaultActiveWindow,
		now:          time.Now,
		drain:        make(chan struct{}),
	}
	s.mux.HandleFunc(PathPacks, s.handlePacks)
	s.mux.HandleFunc(PathCheckin, s.handleCheckin)
	s.mux.HandleFunc(PathMetrics, s.handleMetrics)
	return s
}

// Drain answers every parked long-poll at once — a 304, or the delta
// if a publish beat it — and makes later waits return immediately.
// Register it with http.Server.RegisterOnShutdown: a graceful shutdown
// then finishes without outwaiting MaxLongPollWait.
func (s *Server) Drain() { s.drainOnce.Do(func() { close(s.drain) }) }

// Handler returns the instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return instrument(s.metrics, s.mux) }

// Registry returns the served registry.
func (s *Server) Registry() *Registry { return s.reg }

// MetricsSnapshot captures the counters plus registry and fleet
// status — the same content GET /v1/metrics serves.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	snap := s.metrics.snapshot()
	snap.Version = s.reg.Latest()
	snap.Vaccines = s.reg.Count()
	fl := s.reg.Fleet(s.ActiveWindow, s.now())
	snap.ActiveHosts = fl.ActiveHosts
	snap.Converged = fl.Converged
	snap.MinVersion = fl.MinVersion
	if st, ok := s.reg.Analysis(); ok {
		snap.Analysis = &st
	}
	return snap
}

// statusWriter counts the status and body bytes of one response, and
// carries the time the handler spent parked on a long-poll.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	parked time.Duration
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument wraps a handler with the request/latency/bytes counters.
// The latency it observes is handler time minus long-poll park time, so
// a parked request reports server work, not the client's wait=.
func instrument(m *Metrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		m.requests.Add(1)
		m.bytesOut.Add(uint64(sw.bytes))
		if sw.status >= 400 {
			m.errors.Add(1)
		}
		m.latency.observe(time.Since(start) - sw.parked)
	})
}

// handlePacks serves GET /v1/packs?since=<version>[&wait=<duration>]:
// the delta of vaccines published after <version>, or 304 when the
// client is already current (by version or by ETag).
//
// With wait > 0 an up-to-date request long-polls: it parks on the
// registry's publish broadcaster and the delta fires the instant a
// publish lands, or a 304 when the wait (capped at MaxLongPollWait)
// expires. Plain polls (no wait) keep the exact ETag/304 behaviour.
//
// A since AHEAD of the registry — an agent that outlived a registry
// restarted without its WAL — is answered with the full content marked
// Reset, so the agent rebases on the live version line instead of
// polling 304s forever against versions that no longer exist.
func (s *Server) handlePacks(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	since := uint64(0)
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad since", http.StatusBadRequest)
			return
		}
		since = v
	}
	wait := time.Duration(0)
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		if d > MaxLongPollWait {
			d = MaxLongPollWait
		}
		wait = d
	}

	latest := s.reg.Latest()
	if since > latest {
		delta := s.reg.Delta(0)
		delta.Reset = true
		s.metrics.resyncs.Add(1)
		s.writeDelta(w, r, delta)
		return
	}
	if wait > 0 && since == latest {
		s.metrics.longPolls.Add(1)
		parkStart := time.Now()
		latest = s.waitForPublish(r.Context(), since, wait)
		// Through Handler, w is instrument's statusWriter: hand it the
		// park so the latency histogram leaves it out.
		if sw, ok := w.(*statusWriter); ok {
			sw.parked += time.Since(parkStart)
		}
	}
	if since == latest && (latest > 0 || wait > 0) {
		// Nothing published past the client's version: cheap 304
		// without reading the log. The ETag is the digest of the
		// empty delta this request would otherwise carry — the same
		// vocabulary as full responses, so intermediary caches see one
		// validator form for the resource. (A since=0 plain poll of an
		// empty registry still falls through to serve the explicit
		// empty Complete delta.)
		p := vaccine.Pack{Generator: s.reg.Generator()}
		w.Header().Set("ETag", `"`+p.Digest()+`"`)
		w.WriteHeader(http.StatusNotModified)
		s.metrics.notModified.Add(1)
		return
	}
	s.serveCachedDelta(w, r, since)
}

// serveCachedDelta answers one pack request through the encode cache:
// the response bytes for (since, version, encoding) are computed once
// and every further request at the same cursor — the long-poll
// thundering herd after a publish — is served the cached body.
func (s *Server) serveCachedDelta(w http.ResponseWriter, r *http.Request, since uint64) {
	binary := acceptsBinaryDelta(r.Header.Get("Accept"))
	e, hit, err := s.cache.get(s.reg, since, binary)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if hit {
		s.metrics.encodeHits.Add(1)
	}
	s.writeEncoded(w, r, e)
}

// waitForPublish parks until a version past since is published, the
// wait expires, the client goes away, or the server drains, returning
// the latest version on exit. The broadcaster channel is grabbed
// before re-reading the version, so a publish landing in between
// cannot be missed.
func (s *Server) waitForPublish(ctx context.Context, since uint64, wait time.Duration) uint64 {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		ch := s.reg.notify.wait()
		if latest := s.reg.Latest(); latest > since {
			return latest
		}
		select {
		case <-ch:
		case <-timer.C:
			return s.reg.Latest()
		case <-ctx.Done():
			return s.reg.Latest()
		case <-s.drain:
			return s.reg.Latest()
		}
	}
}

// writeDelta encodes and emits one DeltaResponse under the client's
// negotiated encoding, bypassing the cache (the Reset resync path —
// rare, per-stray-client responses that would only pollute it).
func (s *Server) writeDelta(w http.ResponseWriter, r *http.Request, delta *DeltaResponse) {
	body, contentType, err := encodeDelta(delta, acceptsBinaryDelta(r.Header.Get("Accept")))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeEncoded(w, r, &cachedDelta{
		etag: `"` + delta.ETag + `"`, contentType: contentType, body: body,
	})
}

// writeEncoded emits one pre-encoded delta body with its ETag,
// honouring If-None-Match.
func (s *Server) writeEncoded(w http.ResponseWriter, r *http.Request, e *cachedDelta) {
	w.Header().Set("ETag", e.etag)
	if r.Header.Get("If-None-Match") == e.etag {
		w.WriteHeader(http.StatusNotModified)
		s.metrics.notModified.Add(1)
		return
	}
	w.Header().Set("Content-Type", e.contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.Write(e.body)
	s.metrics.deltas.Add(1)
	if e.contentType == ContentTypeDelta {
		s.metrics.binaryDeltas.Add(1)
	}
}

// handleCheckin serves POST /v1/checkin heartbeats.
func (s *Server) handleCheckin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req CheckinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, checkinBodyLimit))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad checkin body", http.StatusBadRequest)
		return
	}
	if req.Host == "" {
		http.Error(w, "missing host", http.StatusBadRequest)
		return
	}
	resp := s.reg.Checkin(req, s.now())
	s.metrics.checkins.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleMetrics serves GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.MetricsSnapshot())
}
