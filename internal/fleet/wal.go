package fleet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"autovac/internal/vaccine"
)

// Registry durability: a write-ahead log plus snapshot, so the fleet
// control plane survives process restart with its monotonic version
// history intact. Without it a restarted registry reissues versions
// from zero, and every agent that synced the old instance is "ahead"
// of the new one — the wedge the server's resync path papers over but
// persistence actually removes.
//
// Layout under the state directory:
//
//	snapshot.json     full registry content at some version (atomic
//	                  tmp+rename replace)
//	wal-<seq>.log     frame-per-record append logs; records published
//	                  after the snapshot
//
// Each WAL frame is [4-byte LE length][4-byte LE CRC32-IEEE][JSON
// payload]. Replay stops at the first frame whose length or checksum
// is wrong — a torn tail from a crash mid-append — and truncates the
// file there, so the registry reboots to exactly its durable prefix.
//
// Publish appends its batch under the registry lock, so segments hold
// versions in order, and makes it visible only after the fsync (group
// commit: concurrent publishers share one fsync). An append, fsync or
// rotation error is sticky: the log refuses every later append, so the
// registry keeps serving exactly its last durable state. Compaction
// rotates to a fresh segment, snapshots the log, and deletes the older
// segments; replay is idempotent (records apply by max version), so a
// crash anywhere in that sequence recovers cleanly.

const (
	// DefaultCompactEvery is how many WAL records accumulate before
	// Publish triggers a snapshot compaction.
	DefaultCompactEvery = 4096

	snapshotName    = "snapshot.json"
	walSegmentGlob  = "wal-*.log"
	walSegmentFmt   = "wal-%08d.log"
	maxWALFrameSize = 16 << 20 // corrupt-length guard, far above any vaccine
)

// walRecord is one durable publish: a vaccine with its assigned
// version. Records are self-describing, so replay does not depend on
// their order.
type walRecord struct {
	Version uint64
	Vaccine vaccine.Vaccine
}

// snapshotState is the snapshot file's JSON shape: each vaccine's
// newest entry with its version, plus the registry's version at
// capture time (replay lifts the fence to it even where it runs ahead
// of the highest entry).
type snapshotState struct {
	Version   uint64
	Generator string
	Records   []walRecord
}

// RecoveryStats summarises one boot-time replay.
type RecoveryStats struct {
	// SnapshotVersion is the loaded snapshot's version (0 = none).
	SnapshotVersion uint64
	// Segments is how many WAL segments were replayed.
	Segments int
	// Records is how many WAL records were applied on top of the
	// snapshot.
	Records int
	// TruncatedBytes counts bytes cut from a torn segment tail.
	TruncatedBytes int64
}

// errClosed refuses publishes to a closed persistent registry.
var errClosed = errors.New("registry closed")

// wal is the append side of the log. Appends run under the registry's
// write lock; rotate and close run under its read lock, which excludes
// them. Lock order: compactMu, registry mu, syncMu, mu.
type wal struct {
	dir string

	// mu guards the active segment, the counters and err.
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	seq     int
	records int // records since the last snapshot (pre-seeded at boot)
	// err is sticky: the first failed append, fsync or rotation, or
	// errClosed once the log is sealed. Every later append returns it.
	err error

	// writeGen counts completed append batches; syncGen is the highest
	// generation known fsynced. syncMu serialises fsyncs so concurrent
	// publishers batch onto one disk flush.
	writeGen uint64
	syncMu   sync.Mutex
	syncGen  uint64
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf(walSegmentFmt, seq))
}

// openSegment creates the next append segment.
func openSegment(dir string, seq int) (*os.File, error) {
	return os.OpenFile(segmentPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// failure returns the sticky error that refuses appends: nil for a
// healthy log and for an in-memory registry (nil w).
func (w *wal) failure() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// append writes one batch of frames to the active segment and flushes
// them to the OS. It returns the write generation to pass to sync, and
// whether compactEvery records (0 means DefaultCompactEvery) have
// accumulated since the last snapshot.
func (w *wal) append(batch []regEntry, compactEvery int) (uint64, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, false, w.err
	}
	for i := range batch {
		rec := walRecord{Version: batch[i].version, Vaccine: batch[i].v}
		if w.err = writeFrame(w.bw, &rec); w.err != nil {
			return 0, false, w.err
		}
	}
	if w.err = w.bw.Flush(); w.err != nil {
		return 0, false, w.err
	}
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	w.records += len(batch)
	w.writeGen++
	return w.writeGen, w.records >= compactEvery, nil
}

// sync makes every append up to gen durable. The first caller in
// fsyncs the file once for every batch already flushed; publishers
// that arrive while it runs find their generation covered and return
// without touching the disk — fsync batching. A failed fsync is
// sticky, so no later fsync can claim the batches it lost.
func (w *wal) sync(gen uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncGen >= gen {
		return nil
	}
	w.mu.Lock()
	covered, f, err := w.writeGen, w.f, w.err
	w.mu.Unlock()
	if err == nil {
		if err = f.Sync(); err != nil {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
		}
	}
	if err != nil {
		return err
	}
	w.syncGen = covered
	return nil
}

// flushSync makes every append durable. Callers hold syncMu and mu.
func (w *wal) flushSync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncGen = w.writeGen
	return nil
}

// rotate seals the active segment and opens the next one, returning
// the sealed segment's sequence number. Everything in segments <= the
// returned seq is durable and in the log, so a copy of the log taken
// before the next append covers them.
func (w *wal) rotate() (int, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	err := w.flushSync()
	if err == nil {
		err = w.f.Close()
	}
	var f *os.File
	if err == nil {
		f, err = openSegment(w.dir, w.seq+1)
	}
	if err != nil {
		w.err = err
		return 0, err
	}
	sealed := w.seq
	w.seq++
	w.f, w.bw, w.records = f, bufio.NewWriter(f), 0
	return sealed, nil
}

// close seals the log: it flushes, fsyncs, and closes the active
// segment, and refuses every later append. Closing twice is a no-op.
func (w *wal) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == errClosed {
		return nil
	}
	err := w.err
	if err == nil {
		err = w.flushSync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.err = errClosed
	return err
}

// writeFrame emits one length+CRC framed JSON record.
func writeFrame(bw *bufio.Writer, rec *walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: wal: encoding record v%d: %w", rec.Version, err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err = bw.Write(payload)
	return err
}

// readSegment replays one segment file, returning its records and the
// byte offset of the durable prefix. A short, oversized, or
// checksum-failing frame ends the read: everything before it is good,
// everything from it on is a torn tail.
func readSegment(path string) (recs []walRecord, good int64, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	size = st.Size()
	br := bufio.NewReader(f)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			// EOF here is a clean end; a partial header is a torn tail.
			return recs, good, size, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxWALFrameSize {
			return recs, good, size, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, good, size, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, size, nil
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, good, size, nil
		}
		recs = append(recs, rec)
		good += int64(len(hdr)) + int64(n)
	}
}

// applyRecords installs trusted records — a snapshot, a replayed WAL
// segment, or a relay's mirrored delta — and sets the fence to the
// higher of fence and the top record in one critical section, so no
// reader sees a batch half applied. With reset the log is wiped first:
// a relay whose upstream restarted its version line refills its mirror
// without ever serving it empty. Records apply by max version per ID,
// so replaying a segment that a snapshot covers is a no-op.
func (r *Registry) applyRecords(recs []walRecord, fence uint64, reset bool) {
	fps := make([]string, len(recs))
	for i := range recs {
		fps[i] = recs[i].Vaccine.Fingerprint()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if reset {
		r.log, r.last = nil, 0
		clear(r.newest)
	}
	for i, rec := range recs {
		// A missing ID reads as 0; versions start at 1.
		if rec.Version > r.newest[rec.Vaccine.ID] {
			r.store(regEntry{v: rec.Vaccine, fp: fps[i], version: rec.Version})
		}
	}
	r.last = max(r.last, fence)
	r.fence.Store(r.last)
	r.prune()
}

// OpenRegistry opens (or creates) a persistent registry rooted at dir:
// it loads the snapshot if one exists, replays the WAL segments on top
// — truncating a torn tail left by a crash mid-append — and arranges
// for every subsequent Publish to be logged and fsynced before it
// returns. Close the registry to seal the log.
func OpenRegistry(dir string, shards int) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("fleet: OpenRegistry: empty state dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: OpenRegistry: %w", err)
	}
	r := NewRegistry(shards)

	// Snapshot first.
	snapPath := filepath.Join(dir, snapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapshotState
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("fleet: OpenRegistry: corrupt snapshot %s: %w", snapPath, err)
		}
		r.applyRecords(snap.Records, snap.Version, false)
		r.SetGenerator(snap.Generator)
		r.recovery.SnapshotVersion = snap.Version
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("fleet: OpenRegistry: %w", err)
	}

	// Then the segments, oldest first.
	segs, err := filepath.Glob(filepath.Join(dir, walSegmentGlob))
	if err != nil {
		return nil, fmt.Errorf("fleet: OpenRegistry: %w", err)
	}
	sort.Strings(segs) // zero-padded seq: lexical == numeric
	lastSeq := 0
	replayed := 0
	for _, seg := range segs {
		recs, good, size, err := readSegment(seg)
		if err != nil {
			return nil, fmt.Errorf("fleet: OpenRegistry: replaying %s: %w", seg, err)
		}
		if good < size {
			// Torn tail: cut the segment back to its durable prefix so
			// the next boot (and any external reader) sees clean frames.
			if err := os.Truncate(seg, good); err != nil {
				return nil, fmt.Errorf("fleet: OpenRegistry: truncating torn tail of %s: %w", seg, err)
			}
			r.recovery.TruncatedBytes += size - good
		}
		r.applyRecords(recs, 0, false)
		replayed += len(recs)
		r.recovery.Segments++
		if _, err := fmt.Sscanf(filepath.Base(seg), walSegmentFmt, &lastSeq); err != nil {
			return nil, fmt.Errorf("fleet: OpenRegistry: bad segment name %s: %w", seg, err)
		}
	}
	r.recovery.Records = replayed

	// Append to a fresh segment: never write after a truncated tail,
	// and give compaction a natural rotation point.
	f, err := openSegment(dir, lastSeq+1)
	if err != nil {
		return nil, fmt.Errorf("fleet: OpenRegistry: %w", err)
	}
	r.wal = &wal{
		dir: dir,
		f:   f,
		bw:  bufio.NewWriter(f),
		seq: lastSeq + 1,
		// Seed the compaction counter with the replayed backlog so a
		// boot behind a long WAL compacts on the next publish instead
		// of replaying it again next time.
		records: replayed,
	}
	return r, nil
}

// Recovery reports what the boot-time replay found. Zero for an
// in-memory registry.
func (r *Registry) Recovery() RecoveryStats { return r.recovery }

// Persistent reports whether the registry is WAL-backed.
func (r *Registry) Persistent() bool { return r.wal != nil }

// Close seals the write-ahead log: a running compaction finishes and
// the last group commit is fsynced before it returns, and every later
// publish fails. The registry stays readable, and closing it again is a
// no-op. No-op for an in-memory registry.
func (r *Registry) Close() error {
	if r.wal == nil {
		return nil
	}
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.wal.close()
}

// Compact bounds the write-ahead log: in one critical section it
// rotates to a fresh segment and copies the log's newest entries, which
// therefore cover exactly the sealed segments; then it writes the
// snapshot atomically and deletes the sealed segments. Safe to call
// concurrently with publishes and reads; compactions serialise. A crash
// between the snapshot rename and the segment deletes only costs replay
// time: re-replaying a snapshotted segment is a no-op.
func (r *Registry) Compact() error {
	if r.wal == nil {
		return nil
	}
	r.compactMu.Lock()
	defer r.compactMu.Unlock()

	r.mu.RLock()
	sealed, err := r.wal.rotate()
	snap := snapshotState{Version: r.last, Generator: r.Generator()}
	for _, e := range r.log {
		if e.next == 0 {
			snap.Records = append(snap.Records, walRecord{Version: e.version, Vaccine: e.v})
		}
	}
	r.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("fleet: compact: %w", err)
	}

	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("fleet: compact: %w", err)
	}
	tmp := filepath.Join(r.wal.dir, snapshotName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return fmt.Errorf("fleet: compact: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(r.wal.dir, snapshotName)); err != nil {
		return fmt.Errorf("fleet: compact: %w", err)
	}
	if err := syncDir(r.wal.dir); err != nil {
		return fmt.Errorf("fleet: compact: %w", err)
	}
	// The snapshot is durable: the sealed segments are redundant.
	for seq := sealed; seq > 0; seq-- {
		path := segmentPath(r.wal.dir, seq)
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break // older segments were removed by a prior compaction
			}
			return fmt.Errorf("fleet: compact: %w", err)
		}
	}
	return nil
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
