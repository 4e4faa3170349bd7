package fleet

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"autovac/internal/vaccine"
)

// latSub is the number of linear sub-buckets per power of two, so a
// bucket is never wider than 1/latSub of the values it holds.
const latSub = 16

// latBuckets covers every non-negative time.Duration in nanoseconds:
// one bucket per value below 2*latSub, then latSub buckets for each
// power of two from 2^5 to 2^62.
const latBuckets = (62 - 3 + 1) * latSub

// latencyHist is a fixed log-linear histogram of latencies: power-of-two
// majors split into latSub linear sub-buckets. observe takes no lock
// and allocates nothing.
type latencyHist struct {
	buckets [latBuckets]atomic.Uint64
}

// latBucket returns the bucket holding v nanoseconds: the values below
// 2*latSub map to themselves, and a larger v in [2^e, 2^(e+1)) lands in
// sub-bucket (v >> (e-4)) & 15 of major e.
func latBucket(v uint64) int {
	if v < 2*latSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-3)*latSub + int(v>>(e-4))&(latSub-1)
}

// latUpper returns the largest value bucket i holds.
func latUpper(i int) uint64 {
	if i < 2*latSub {
		return uint64(i)
	}
	e, sub := i/latSub+3, uint64(i%latSub)
	return 1<<e + (sub+1)<<(e-4) - 1
}

// observe records one latency sample.
func (h *latencyHist) observe(d time.Duration) {
	h.buckets[latBucket(uint64(max(d, 0)))].Add(1)
}

// quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// largest value of the bucket holding the ceil(q*n)-th smallest sample.
// It never under-reports, and over-reports by less than 1/latSub.
func (h *latencyHist) quantile(q float64) time.Duration {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(total))), 1), total)
	var cum uint64
	for i := range h.buckets {
		// Buckets only grow, so a sample observed after the total was
		// taken can only make cum reach rank sooner.
		if cum += h.buckets[i].Load(); cum >= rank {
			return time.Duration(latUpper(i))
		}
	}
	return time.Duration(latUpper(latBuckets - 1))
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
	// P50 and P99 are handler latency quantiles in microseconds. A
	// long-poll's time parked waiting for a publish is not counted.
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
