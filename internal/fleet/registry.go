package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/vaccine"
)

// DefaultShards is the registry shard count when NewRegistry is given
// zero. 16 shards keep write contention negligible for corpus-sized
// packs while the per-shard high-water version lets delta reads skip
// untouched shards entirely.
const DefaultShards = 16

// regEntry is one published vaccine with its publish version.
type regEntry struct {
	v       vaccine.Vaccine
	fp      string // content fingerprint, for idempotent republish
	version uint64
}

// regShard is one RWMutex-guarded slice of the vaccine space.
type regShard struct {
	mu   sync.RWMutex
	byID map[string]regEntry
	// version is the shard's high-water publish version: a delta read
	// with since >= version skips the shard without touching byID.
	version uint64
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

// Registry is the server-side vaccine store: vaccines land in shards
// keyed by FNV-1a of their ID, every accepted publish gets the next
// value of a single monotonic version counter, and host heartbeats are
// tracked in a separately sharded table. All methods are safe for
// concurrent use.
//
// A registry is in-memory by default; OpenRegistry (wal.go) attaches a
// write-ahead log and snapshot so publishes survive process restart
// with the monotonic version history intact.
type Registry struct {
	shards    []regShard
	hostTab   []hostShard
	version   atomic.Uint64
	generator atomic.Pointer[string]

	// notify is the publish broadcaster: long-poll sync requests park
	// on it and wake the instant a publish lands (see notify.go).
	notify *notifier

	// publishMu serialises version assignment: a publish stores its
	// whole batch, then makes the batch's versions visible at once.
	publishMu sync.Mutex

	// wal, when non-nil, is the durability layer: Publish appends each
	// accepted vaccine to it and returns only once the records are
	// fsynced (see wal.go). recovery summarises the boot-time replay.
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

// NewRegistry creates a registry with the given shard count (0 means
// DefaultShards). The count is rounded up to a power of two so shard
// selection is a mask, not a modulo.
func NewRegistry(shards int) *Registry {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &Registry{
		shards:  make([]regShard, n),
		hostTab: make([]hostShard, n),
		notify:  newNotifier(),
	}
	for i := range r.shards {
		r.shards[i].byID = make(map[string]regEntry)
		r.hostTab[i].hosts = make(map[string]hostState)
	}
	g := ""
	r.generator.Store(&g)
	return r
}

// fnv32a is the FNV-1a hash the registry shards on.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (r *Registry) shardFor(id string) *regShard {
	return &r.shards[fnv32a(id)&uint32(len(r.shards)-1)]
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

// Publish validates and stores a batch of vaccines, assigning each
// accepted vaccine the next monotonic version. Republishing a vaccine
// whose content is unchanged is a no-op (no version bump), so
// periodic full-pack publishes don't force fleet-wide resyncs; a
// changed vaccine under an existing ID replaces it at a new version.
// It returns the registry's latest version and the number of vaccines
// actually (re)stored.
//
// Publication is the last gate before fleet-wide distribution, so in
// addition to record validation every vaccine must pass the static
// slice verifier (VerifyReplayable): a vaccine whose replay slice
// could loop, fault, or touch host resources is refused.
// When the registry is persistent (OpenRegistry), every stored vaccine
// is appended to the write-ahead log and Publish returns only after the
// records are fsynced; concurrent publishers share one fsync (group
// commit). Long-poll waiters are woken only after durability, so no
// agent can observe a version that a crash could take back.
func (r *Registry) Publish(vs ...vaccine.Vaccine) (uint64, int, error) {
	// Validate up to the first bad vaccine; the ones before it are
	// still published.
	var pubErr error
	fps := make([]string, 0, len(vs))
	for i := range vs {
		if err := vs[i].Validate(); err != nil {
			pubErr = fmt.Errorf("fleet: publish: %w", err)
			break
		}
		if err := vs[i].VerifyReplayable(); err != nil {
			pubErr = fmt.Errorf("fleet: publish: %w", err)
			break
		}
		fps = append(fps, vs[i].Fingerprint())
	}
	// The counter moves once, after the whole batch is stored, so a
	// concurrent Delta or parked poll never sees a version whose batch
	// is half stored.
	stored := 0
	var batch []walRecord
	r.publishMu.Lock()
	ver := r.version.Load()
	for i, fp := range fps {
		v := vs[i]
		s := r.shardFor(v.ID)
		s.mu.Lock()
		if prev, ok := s.byID[v.ID]; ok && prev.fp == fp {
			s.mu.Unlock()
			continue
		}
		ver++
		s.byID[v.ID] = regEntry{v: v, fp: fp, version: ver}
		s.version = ver
		s.mu.Unlock()
		stored++
		if r.wal != nil {
			batch = append(batch, walRecord{Version: ver, Vaccine: v})
		}
	}
	r.version.Store(ver)
	r.publishMu.Unlock()
	// Vaccines stored before a mid-batch rejection must still reach
	// the log and the waiters: the error reports the bad vaccine, not
	// a rollback.
	if len(batch) > 0 {
		if err := r.logBatch(batch); err != nil && pubErr == nil {
			pubErr = err
		}
	}
	if stored > 0 {
		r.notify.wake()
	}
	return r.version.Load(), stored, pubErr
}

// Latest returns the registry's latest publish version.
func (r *Registry) Latest() uint64 { return r.version.Load() }

// ratchetVersion lifts the version counter to at least v without
// publishing anything. Relays use it to adopt an upstream fence that
// ran ahead of the highest record version (no-op republishes advance
// the origin counter without new content).
func (r *Registry) ratchetVersion(v uint64) {
	for {
		cur := r.version.Load()
		if v <= cur || r.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// resetMirror drops every stored vaccine and rewinds the version
// counter to zero. Only relays call it — when the upstream's version
// line restarted below the mirror's, the mirror must rebase the same
// way an agent does, and its own downstream agents then hit the
// since-ahead-of-registry path and receive Reset deltas in turn.
// Concurrent delta reads during the wipe see a transient partial or
// empty registry; their clients converge on the next poll once the
// upstream's content is re-applied.
func (r *Registry) resetMirror() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		clear(s.byID)
		s.version = 0
		s.mu.Unlock()
	}
	r.version.Store(0)
}

// Count returns the number of distinct vaccines stored.
func (r *Registry) Count() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.byID)
		s.mu.RUnlock()
	}
	return n
}

// deltaScanHook, when set, runs after Delta's shard scan and before
// the response is assembled. The regression test for the torn version
// fence uses it to publish mid-read at the exact point where the old
// code (which loaded the version counter *after* the scan) produced a
// Version covering vaccines the body omitted.
var deltaScanHook func()

// Delta returns every vaccine published after the given version,
// ordered by ascending version, with the pack digest the server uses
// as the sync ETag. since=0 yields the complete registry content.
//
// Consistency: the version fence is captured BEFORE the shard scan and
// the response contains exactly the vaccines whose latest version lies
// in (since, fence]. Capturing the fence after the scan instead was the
// delta-sync lost-update race: a publish landing in an already-scanned
// shard mid-read advanced the reported Version past a vaccine the body
// did not contain, so agents adopted that Version and never fetched the
// vaccine. With the fence first, a mid-scan publish is assigned a
// version above the fence and is excluded from both the body and the
// Version — the next poll picks it up. (An entry replaced mid-scan to a
// version above the fence drops out of this delta entirely; its
// replacement, being newer than the reported Version, is fetched next
// poll, so convergence to the latest content is never lost.)
func (r *Registry) Delta(since uint64) *DeltaResponse {
	fence := r.version.Load()
	var entries []regEntry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		if s.version > since {
			for _, e := range s.byID {
				if e.version > since && e.version <= fence {
					entries = append(entries, e)
				}
			}
		}
		s.mu.RUnlock()
	}
	if deltaScanHook != nil {
		deltaScanHook()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].version < entries[j].version })
	d := &DeltaResponse{
		Since:     since,
		Version:   fence,
		Complete:  since == 0,
		Generator: r.Generator(),
		Vaccines:  make([]vaccine.Vaccine, len(entries)),
		Versions:  make([]uint64, len(entries)),
	}
	fps := make([]string, len(entries))
	for i := range entries {
		d.Vaccines[i] = entries[i].v
		d.Versions[i] = entries[i].version
		fps[i] = entries[i].fp
	}
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
	return CheckinResponse{Version: r.version.Load()}
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
	latest := r.version.Load()
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
