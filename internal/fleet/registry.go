package fleet

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/vaccine"
)

// DefaultShards is the host heartbeat table's shard count when
// NewRegistry is given zero: every check-in writes the table.
const DefaultShards = 16

// regEntry is one published vaccine with its publish version.
type regEntry struct {
	v       vaccine.Vaccine
	fp      string // content fingerprint, for idempotent republish
	version uint64
	// next is the version that replaced this entry under its ID (0 while
	// it is the newest): a delta cut at a fence below next serves it.
	next uint64
}

// hostShard is one slice of the host heartbeat table.
type hostShard struct {
	mu    sync.Mutex
	hosts map[string]hostState
}

// hostState is the last heartbeat from one host.
type hostState struct {
	version     uint64
	installed   int
	inspected   int
	intercepted int
	lastSeen    time.Time
}

// Registry is the server-side vaccine store: one log of published
// vaccines in ascending version order, where every accepted publish
// gets the next monotonic version, plus a sharded host heartbeat table.
// Readers see the log up to the fence, the highest version whose batch
// is stored and, for a persistent registry (OpenRegistry, wal.go),
// fsynced. All methods are safe for concurrent use.
type Registry struct {
	// mu guards log, newest and last. Publish holds it to number, store
	// and log a batch, so WAL segments hold versions in order; readers
	// hold it shared.
	mu     sync.RWMutex
	log    []regEntry        // ascending version order
	newest map[string]uint64 // vaccine ID -> version of its newest entry
	last   uint64            // highest version assigned or applied
	// fence is the highest version readers see. Publish raises it only
	// after its batch's WAL fsync; applyRecords sets it under mu.
	fence atomic.Uint64

	hostTab   []hostShard
	generator atomic.Pointer[string]

	// notify is the publish broadcaster: long-poll sync requests park
	// on it and wake the instant a publish lands (see notify.go).
	notify *notifier

	// wal, when non-nil, is the durability layer (see wal.go); recovery
	// summarises the boot-time replay.
	wal      *wal
	recovery RecoveryStats

	// CompactEvery triggers a snapshot compaction once this many WAL
	// records have accumulated since the last snapshot (0 means
	// DefaultCompactEvery). Set it before serving; it is read by
	// Publish without synchronisation.
	CompactEvery int

	// compactMu serialises snapshot compactions.
	compactMu sync.Mutex

	// analysisMu guards analysis, the accumulated corpus-analysis
	// statistics of every pack published with them.
	analysisMu  sync.Mutex
	analysis    vaccine.AnalysisStats
	analysisSet bool
}

// NewRegistry creates an in-memory registry whose host heartbeat table
// has the given shard count (0 means DefaultShards), rounded up to a
// power of two so shard selection is a mask, not a modulo.
func NewRegistry(shards int) *Registry {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &Registry{
		newest:  make(map[string]uint64),
		hostTab: make([]hostShard, n),
		notify:  newNotifier(),
	}
	for i := range r.hostTab {
		r.hostTab[i].hosts = make(map[string]hostState)
	}
	g := ""
	r.generator.Store(&g)
	return r
}

// fnv32a is the FNV-1a hash the heartbeat table shards on.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (r *Registry) hostShardFor(host string) *hostShard {
	return &r.hostTab[fnv32a(host)&uint32(len(r.hostTab)-1)]
}

// SetGenerator records the publishing pipeline's label, echoed in
// sync responses.
func (r *Registry) SetGenerator(g string) { r.generator.Store(&g) }

// Generator returns the publishing pipeline's label.
func (r *Registry) Generator() string { return *r.generator.Load() }

// RecordAnalysis accumulates the corpus-analysis statistics shipped
// inside a published pack, so /v1/metrics can report analysis health
// (samples analysed/failed/panicked) next to distribution counters.
func (r *Registry) RecordAnalysis(st vaccine.AnalysisStats) {
	r.analysisMu.Lock()
	defer r.analysisMu.Unlock()
	r.analysis.Add(st)
	r.analysisSet = true
}

// Analysis returns the accumulated analysis statistics and whether
// any pack has recorded them.
func (r *Registry) Analysis() (vaccine.AnalysisStats, bool) {
	r.analysisMu.Lock()
	defer r.analysisMu.Unlock()
	return r.analysis, r.analysisSet
}

// after returns the index of the first log entry above version v.
// Callers hold mu.
func (r *Registry) after(v uint64) int {
	return sort.Search(len(r.log), func(i int) bool { return r.log[i].version > v })
}

// at returns the log entry holding version v. Callers hold mu.
func (r *Registry) at(v uint64) *regEntry { return &r.log[r.after(v-1)] }

// store files e as its ID's newest entry, in version order, and marks
// the entry it replaces. Callers hold mu.
func (r *Registry) store(e regEntry) {
	if prev, ok := r.newest[e.v.ID]; ok {
		r.at(prev).next = e.version
	}
	r.newest[e.v.ID] = e.version
	if e.version > r.last {
		r.log = append(r.log, e)
		r.last = e.version
		return
	}
	// Replayed out of order (segments written by an older release).
	r.log = slices.Insert(r.log, r.after(e.version), e)
}

// prune drops entries replaced at or below the fence, which no delta
// serves again, once they make up half the log: memory follows the live
// pack, not its publish history. Callers hold mu exclusively.
func (r *Registry) prune() {
	if len(r.log) > 2*len(r.newest) {
		fence := r.fence.Load()
		r.log = slices.DeleteFunc(r.log, func(e regEntry) bool { return e.next != 0 && e.next <= fence })
	}
}

// raise lifts the fence to v, making every version up to v visible.
func (r *Registry) raise(v uint64) {
	for {
		cur := r.fence.Load()
		if v <= cur || r.fence.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Publish validates and stores a batch of vaccines, assigning each
// accepted vaccine the next monotonic version. Republishing a vaccine
// whose content is unchanged is a no-op (no version bump), so
// periodic full-pack publishes don't force fleet-wide resyncs; a
// changed vaccine under an existing ID replaces it at a new version.
// It returns the registry's latest version and the number of vaccines
// actually (re)stored.
//
// Publication is the last gate before fleet-wide distribution, so every
// vaccine must pass vaccine.Vaccine.Verify: a malformed record, a
// replay slice that could loop, fault, or touch host resources, or a
// domain vaccine that would sinkhole benign traffic or an unqualified
// name is refused.
// With a write-ahead log (OpenRegistry) the batch becomes visible only
// once fsynced, concurrent publishers sharing one fsync; a failed
// append or fsync is sticky, so this publish and every later one fail
// and the registry keeps serving its last durable state.
func (r *Registry) Publish(vs ...vaccine.Vaccine) (uint64, int, error) {
	// Verify up to the first bad vaccine; the ones before it are
	// still published.
	var pubErr error
	fps := make([]string, 0, len(vs))
	for i := range vs {
		if err := vs[i].Verify(); err != nil {
			pubErr = fmt.Errorf("fleet: publish: %w", err)
			break
		}
		fps = append(fps, vs[i].Fingerprint())
	}
	r.mu.Lock()
	if err := r.wal.failure(); err != nil {
		r.mu.Unlock()
		return r.Latest(), 0, fmt.Errorf("fleet: wal: %w", err)
	}
	start := len(r.log)
	for i, fp := range fps {
		if prev, ok := r.newest[vs[i].ID]; ok && r.at(prev).fp == fp {
			continue
		}
		r.store(regEntry{v: vs[i], fp: fp, version: r.last + 1})
	}
	top, stored := r.last, len(r.log)-start
	var gen uint64
	var due bool
	var err error
	if r.wal != nil && stored > 0 {
		gen, due, err = r.wal.append(r.log[start:], r.CompactEvery)
	}
	r.prune()
	r.mu.Unlock()
	if gen > 0 {
		err = r.wal.sync(gen)
	}
	if err != nil {
		return r.Latest(), 0, fmt.Errorf("fleet: wal: %w", err)
	}
	// Vaccines stored before a mid-batch rejection are still published:
	// the error reports the bad vaccine, not a rollback.
	if stored > 0 {
		r.raise(top)
		r.notify.wake()
	}
	if due {
		if err := r.Compact(); err != nil && pubErr == nil {
			pubErr = err
		}
	}
	return r.Latest(), stored, pubErr
}

// Latest returns the registry's latest visible version: the fence.
func (r *Registry) Latest() uint64 { return r.fence.Load() }

// Count returns the number of distinct vaccines visible at the fence.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fence := r.fence.Load()
	n := 0
	for _, e := range r.log[:r.after(fence)] {
		if e.next == 0 || e.next > fence {
			n++
		}
	}
	return n
}

// Delta returns every vaccine published after the given version,
// ordered by ascending version, with the pack digest the server uses
// as the sync ETag. since=0 yields the complete registry content.
//
// Consistency: under one read lock it reads the fence and copies the
// entries in (since, fence] that were still their ID's newest at the
// fence. Every version up to the fence is stored before the fence moves
// past it, so the claimed Version covers nothing the body lacks; a
// publish still in flight lies above the fence and is fetched next poll.
func (r *Registry) Delta(since uint64) *DeltaResponse {
	r.mu.RLock()
	fence := r.fence.Load()
	lo, hi := r.after(since), r.after(fence)
	n := max(hi-lo, 0) // an upper bound: replaced entries are skipped
	d := &DeltaResponse{
		Since:     since,
		Version:   fence,
		Complete:  since == 0,
		Generator: r.Generator(),
		Vaccines:  make([]vaccine.Vaccine, 0, n),
		Versions:  make([]uint64, 0, n),
	}
	fps := make([]string, 0, n)
	for i := lo; i < hi; i++ {
		if e := &r.log[i]; e.next == 0 || e.next > fence {
			d.Vaccines = append(d.Vaccines, e.v)
			d.Versions = append(d.Versions, e.version)
			fps = append(fps, e.fp)
		}
	}
	r.mu.RUnlock()
	// The fingerprints were computed at publish time; digesting them
	// directly skips one JSON marshal + SHA-256 per vaccine per delta,
	// which the long-poll thundering herd (every parked agent fetching
	// the same delta at once) turns into a hot path.
	d.ETag = vaccine.DigestFingerprints(d.Generator, fps)
	return d
}

// Checkin records a host heartbeat and returns the latest registry
// version as the staleness hint.
func (r *Registry) Checkin(req CheckinRequest, now time.Time) CheckinResponse {
	s := r.hostShardFor(req.Host)
	s.mu.Lock()
	s.hosts[req.Host] = hostState{
		version:     req.Version,
		installed:   req.Installed,
		inspected:   req.Inspected,
		intercepted: req.Intercepted,
		lastSeen:    now,
	}
	s.mu.Unlock()
	return CheckinResponse{Version: r.Latest()}
}

// FleetStatus summarises the host heartbeat table.
type FleetStatus struct {
	// ActiveHosts counts hosts seen within the window.
	ActiveHosts int
	// Converged counts active hosts whose applied version matches the
	// registry's latest.
	Converged int
	// MinVersion is the lowest applied version among active hosts,
	// including hosts legitimately at version 0; it is meaningful only
	// when ActiveHosts > 0.
	MinVersion uint64
	// Installed, Inspected, and Intercepted aggregate the active
	// hosts' daemon counters.
	Installed   int
	Inspected   int
	Intercepted int
}

// Fleet reports heartbeat aggregates over hosts seen within the
// window ending at now.
func (r *Registry) Fleet(window time.Duration, now time.Time) FleetStatus {
	latest := r.Latest()
	var st FleetStatus
	seen := false
	cutoff := now.Add(-window)
	for i := range r.hostTab {
		s := &r.hostTab[i]
		s.mu.Lock()
		for _, h := range s.hosts {
			if h.lastSeen.Before(cutoff) {
				continue
			}
			st.ActiveHosts++
			if h.version == latest {
				st.Converged++
			}
			// seen, not a zero sentinel: a fresh host legitimately
			// reports version 0, and treating 0 as "unset" skipped it
			// and reported a later host's version as the minimum.
			if !seen || h.version < st.MinVersion {
				st.MinVersion = h.version
				seen = true
			}
			st.Installed += h.installed
			st.Inspected += h.inspected
			st.Intercepted += h.intercepted
		}
		s.mu.Unlock()
	}
	return st
}
