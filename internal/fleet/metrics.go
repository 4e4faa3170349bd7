package fleet

import (
	"sync/atomic"
	"time"

	"autovac/internal/vaccine"
)

// latBuckets is the histogram resolution: bucket i counts handler
// latencies in [2^i, 2^(i+1)) microseconds, so 32 buckets span sub-µs
// to ~70 minutes with constant memory and lock-free updates.
const latBuckets = 32

// latencyHist is a fixed power-of-two histogram of handler latencies.
type latencyHist struct {
	buckets [latBuckets]atomic.Uint64
	count   atomic.Uint64
	sumUS   atomic.Uint64
}

// observe records one latency sample.
func (h *latencyHist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	h.count.Add(1)
	h.sumUS.Add(us)
	i := 0
	for v := us; v > 1 && i < latBuckets-1; v >>= 1 {
		i++
	}
	h.buckets[i].Add(1)
}

// quantile estimates the q-quantile (0..1) as the upper edge of the
// bucket where the cumulative count crosses q*total.
func (h *latencyHist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < latBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return time.Duration(uint64(1)<<uint(i+1)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<latBuckets) * time.Microsecond
}

// Metrics is the server's lock-free counter set. All fields are
// updated atomically by the HTTP handlers.
type Metrics struct {
	requests     atomic.Uint64
	deltas       atomic.Uint64
	binaryDeltas atomic.Uint64
	encodeHits   atomic.Uint64
	notModified  atomic.Uint64
	longPolls    atomic.Uint64
	resyncs      atomic.Uint64
	checkins     atomic.Uint64
	errors       atomic.Uint64
	bytesOut     atomic.Uint64
	latency      latencyHist
}

// MetricsSnapshot is the JSON shape of GET /v1/metrics.
type MetricsSnapshot struct {
	// Requests counts every HTTP request handled.
	Requests uint64
	// DeltasServed counts 200 responses on /v1/packs.
	DeltasServed uint64
	// BinaryDeltas counts the subset of DeltasServed encoded with the
	// binary codec (Accept: application/x-autovac-delta).
	BinaryDeltas uint64
	// EncodeCacheHits counts pack responses served from the encoded
	// delta cache instead of a fresh delta copy + encode.
	EncodeCacheHits uint64
	// NotModified counts 304 responses on /v1/packs.
	NotModified uint64
	// LongPolls counts pack requests that parked on the publish
	// broadcaster (wait= with an up-to-date since).
	LongPolls uint64
	// Resyncs counts pack requests whose since was ahead of the
	// registry, answered with a full Reset delta.
	Resyncs uint64
	// Checkins counts accepted heartbeats.
	Checkins uint64
	// Errors counts 4xx/5xx responses.
	Errors uint64
	// BytesServed totals response body bytes.
	BytesServed uint64
	// P50 and P99 are handler latency quantiles in microseconds.
	P50Micros uint64
	P99Micros uint64
	// Version and Vaccines describe the registry.
	Version  uint64
	Vaccines int
	// ActiveHosts / Converged / MinVersion summarise recent
	// heartbeats (see FleetStatus).
	ActiveHosts int
	Converged   int
	MinVersion  uint64
	// Analysis, when present, is the accumulated corpus-analysis
	// health of the published packs (samples analysed, failed,
	// panicked, skipped, and analysis wall time).
	Analysis *vaccine.AnalysisStats `json:",omitempty"`
}

// snapshot captures the counters.
func (m *Metrics) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Requests:        m.requests.Load(),
		DeltasServed:    m.deltas.Load(),
		BinaryDeltas:    m.binaryDeltas.Load(),
		EncodeCacheHits: m.encodeHits.Load(),
		NotModified:     m.notModified.Load(),
		LongPolls:       m.longPolls.Load(),
		Resyncs:         m.resyncs.Load(),
		Checkins:        m.checkins.Load(),
		Errors:          m.errors.Load(),
		BytesServed:     m.bytesOut.Load(),
		P50Micros:       uint64(m.latency.quantile(0.50).Microseconds()),
		P99Micros:       uint64(m.latency.quantile(0.99).Microseconds()),
	}
}
