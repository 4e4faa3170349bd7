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
// Publish appends records and fsyncs before returning (group commit:
// concurrent publishers share one fsync). Compaction rotates to a
// fresh segment, snapshots the full in-memory state, and deletes the
// older segments; replay is idempotent (records apply by max version),
// so a crash anywhere in that sequence recovers cleanly.

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
// version. Records are self-describing, so replay order within a
// segment batch does not matter.
type walRecord struct {
	Version uint64
	Vaccine vaccine.Vaccine
}

// snapshotState is the snapshot file's JSON shape: the full registry
// content with per-entry versions, plus the version counter at capture
// time (which may run ahead of the highest entry after no-op or
// superseded publishes).
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

// wal is the append side of the log. Lock order: syncMu before mu
// (rotate and sync both honour it).
type wal struct {
	dir string

	// mu serialises appends and rotation of the active segment.
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	seq     int
	records int // records since the last snapshot (pre-seeded at boot)

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

// append writes one batch of frames to the active segment and flushes
// them to the OS, returning the write generation to pass to sync.
func (w *wal) append(recs []walRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range recs {
		if err := writeFrame(w.bw, &recs[i]); err != nil {
			return 0, err
		}
	}
	if err := w.bw.Flush(); err != nil {
		return 0, err
	}
	w.records += len(recs)
	w.writeGen++
	return w.writeGen, nil
}

// sync makes every append up to gen durable. The first caller in
// fsyncs the file once for every batch already flushed; publishers
// that arrive while it runs find their generation covered and return
// without touching the disk — fsync batching.
func (w *wal) sync(gen uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncGen >= gen {
		return nil
	}
	w.mu.Lock()
	covered := w.writeGen
	f := w.f
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	w.syncGen = covered
	return nil
}

// rotate seals the active segment and opens the next one, returning
// the sealed segment's sequence number. Everything in segments <= the
// returned seq is durable and already applied to memory (records are
// stored to shards before they are appended), so a snapshot taken
// after rotation covers them.
func (w *wal) rotate() (int, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	sealed := w.seq
	w.seq++
	f, err := openSegment(w.dir, w.seq)
	if err != nil {
		return 0, err
	}
	w.f = f
	w.bw = bufio.NewWriter(f)
	w.records = 0
	w.syncGen = w.writeGen
	return sealed, nil
}

// close flushes, fsyncs, and closes the active segment.
func (w *wal) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
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

// applyRecord installs one replayed or mirrored record, trusting its
// source (the vaccine was validated and slice-verified at publish
// time). It is idempotent: an entry only moves forward in version. It
// leaves the version counter alone: callers ratchet it once per batch,
// after every record of the batch is stored, so a concurrent Delta
// never sees a version whose records are half applied.
func (r *Registry) applyRecord(rec walRecord) {
	s := r.shardFor(rec.Vaccine.ID)
	s.mu.Lock()
	if prev, ok := s.byID[rec.Vaccine.ID]; !ok || prev.version <= rec.Version {
		s.byID[rec.Vaccine.ID] = regEntry{
			v:       rec.Vaccine,
			fp:      rec.Vaccine.Fingerprint(),
			version: rec.Version,
		}
		if rec.Version > s.version {
			s.version = rec.Version
		}
	}
	s.mu.Unlock()
}

// applyRecords applies a replayed batch, then ratchets the counter
// once to the higher of fence and the batch's top version.
func (r *Registry) applyRecords(recs []walRecord, fence uint64) {
	for _, rec := range recs {
		r.applyRecord(rec)
		fence = max(fence, rec.Version)
	}
	r.ratchetVersion(fence)
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
		r.applyRecords(snap.Records, snap.Version)
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
		r.applyRecords(recs, 0)
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

// Close seals the write-ahead log. The registry remains readable;
// further publishes fail. No-op for an in-memory registry.
func (r *Registry) Close() error {
	if r.wal == nil {
		return nil
	}
	return r.wal.close()
}

// logBatch appends one publish's records and waits for durability,
// then triggers compaction if the log has grown past CompactEvery.
func (r *Registry) logBatch(batch []walRecord) error {
	gen, err := r.wal.append(batch)
	if err != nil {
		return fmt.Errorf("fleet: wal append: %w", err)
	}
	if err := r.wal.sync(gen); err != nil {
		return fmt.Errorf("fleet: wal sync: %w", err)
	}
	limit := r.CompactEvery
	if limit <= 0 {
		limit = DefaultCompactEvery
	}
	r.wal.mu.Lock()
	due := r.wal.records >= limit
	r.wal.mu.Unlock()
	if due {
		if err := r.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// Compact bounds the write-ahead log: it rotates to a fresh segment,
// snapshots the full in-memory registry (which covers every record in
// the sealed segments — records reach memory before the log), writes
// the snapshot atomically, and deletes the sealed segments. Safe to
// call concurrently with publishes and reads; concurrent compactions
// serialise. A crash between the snapshot rename and the segment
// deletes only costs replay time: records are applied by max version,
// so re-replaying a snapshotted segment is a no-op.
func (r *Registry) Compact() error {
	if r.wal == nil {
		return nil
	}
	r.compactMu.Lock()
	defer r.compactMu.Unlock()

	sealed, err := r.wal.rotate()
	if err != nil {
		return fmt.Errorf("fleet: compact: %w", err)
	}
	snap := snapshotState{Generator: r.Generator()}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, e := range s.byID {
			snap.Records = append(snap.Records, walRecord{Version: e.version, Vaccine: e.v})
		}
		s.mu.RUnlock()
	}
	sort.Slice(snap.Records, func(i, j int) bool {
		return snap.Records[i].Version < snap.Records[j].Version
	})
	// Capture the counter after the scan so it covers every entry in
	// the snapshot; max() at replay handles records beyond it.
	snap.Version = r.version.Load()

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
