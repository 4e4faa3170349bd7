package fleet

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openTestRegistry opens a persistent registry in dir, failing the
// test on error.
func openTestRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	r, err := OpenRegistry(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// walSegments lists the state dir's WAL segment files, sorted.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, walSegmentGlob))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	return segs
}

func TestWALReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	if !r.Persistent() {
		t.Fatal("OpenRegistry returned a non-persistent registry")
	}
	if _, _, err := r.Publish(testVaccines("wal", 12)...); err != nil {
		t.Fatal(err)
	}
	before := r.Delta(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestRegistry(t, dir)
	defer r2.Close()
	if r2.Latest() != 12 || r2.Count() != 12 {
		t.Fatalf("reboot state: version %d count %d, want 12/12", r2.Latest(), r2.Count())
	}
	after := r2.Delta(0)
	if after.ETag != before.ETag {
		t.Fatalf("reboot digest %s != pre-crash digest %s", after.ETag, before.ETag)
	}
	rec := r2.Recovery()
	if rec.Records != 12 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery stats %+v, want 12 records, 0 truncated", rec)
	}
	// Versions keep counting from where they stopped: an agent's cursor
	// is never ahead of a properly restarted registry.
	if _, _, err := r2.Publish(staticVaccine("wal/post/0", "WAL-POST-0001")); err != nil {
		t.Fatal(err)
	}
	if r2.Latest() != 13 {
		t.Fatalf("post-reboot publish got version %d, want 13", r2.Latest())
	}
}

func TestWALReplayKeepsLatestVersionPerID(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	vs := testVaccines("up", 4)
	if _, _, err := r.Publish(vs...); err != nil {
		t.Fatal(err)
	}
	vs[1].Identifier = "up-CHANGED"
	if ver, stored, err := r.Publish(vs...); err != nil || stored != 1 || ver != 5 {
		t.Fatalf("update publish: version %d stored %d err %v", ver, stored, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestRegistry(t, dir)
	defer r2.Close()
	if r2.Latest() != 5 || r2.Count() != 4 {
		t.Fatalf("reboot state: version %d count %d, want 5/4", r2.Latest(), r2.Count())
	}
	d := r2.Delta(4)
	if len(d.Vaccines) != 1 || d.Vaccines[0].Identifier != "up-CHANGED" {
		t.Fatalf("replay lost the in-place update: %+v", d.Vaccines)
	}
}

// TestWALTornTailTruncated simulates a crash mid-append: garbage after
// the last durable frame must be cut off at reopen, recovering exactly
// the durable prefix.
func TestWALTornTailTruncated(t *testing.T) {
	cases := []struct {
		name string
		tail []byte
	}{
		// A few bytes of a frame header that never finished.
		{"partial-header", []byte{0xde, 0xad, 0xbe}},
		// A complete-looking frame whose checksum is wrong.
		{"bad-crc", []byte{4, 0, 0, 0, 0, 0, 0, 0, 'j', 'u', 'n', 'k'}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := openTestRegistry(t, dir)
			if _, _, err := r.Publish(testVaccines("torn", 6)...); err != nil {
				t.Fatal(err)
			}
			before := r.Delta(0)
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}

			segs := walSegments(t, dir)
			if len(segs) == 0 {
				t.Fatal("no WAL segments on disk")
			}
			last := segs[len(segs)-1]
			f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			torn, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}

			r2 := openTestRegistry(t, dir)
			defer r2.Close()
			rec := r2.Recovery()
			if rec.TruncatedBytes != int64(len(tc.tail)) {
				t.Fatalf("truncated %d bytes, want %d", rec.TruncatedBytes, len(tc.tail))
			}
			if r2.Latest() != 6 || r2.Delta(0).ETag != before.ETag {
				t.Fatalf("torn-tail reboot: version %d digest %s, want 6 / %s",
					r2.Latest(), r2.Delta(0).ETag, before.ETag)
			}
			// The file itself was cut back to its durable prefix.
			clean, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Size() != torn.Size()-int64(len(tc.tail)) {
				t.Fatalf("segment still %d bytes, want %d", clean.Size(), torn.Size()-int64(len(tc.tail)))
			}
		})
	}
}

// TestWALCompaction drives the snapshot path: once CompactEvery records
// accumulate, Publish compacts — the registry content lands in
// snapshot.json, the sealed segments are deleted, and a reboot loads
// the snapshot instead of replaying the full history.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	r.CompactEvery = 8
	r.SetGenerator("compact-test")
	if _, _, err := r.Publish(testVaccines("cmp", 20)...); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot after %d publishes with CompactEvery=8: %v", 20, err)
	}
	if segs := walSegments(t, dir); len(segs) != 1 {
		t.Fatalf("sealed segments not deleted: %v", segs)
	}
	before := r.Delta(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestRegistry(t, dir)
	defer r2.Close()
	rec := r2.Recovery()
	if rec.SnapshotVersion != 20 {
		t.Fatalf("snapshot version %d, want 20", rec.SnapshotVersion)
	}
	if rec.Records != 0 {
		t.Fatalf("replayed %d WAL records past the snapshot, want 0", rec.Records)
	}
	if r2.Latest() != 20 || r2.Delta(0).ETag != before.ETag {
		t.Fatalf("post-compaction reboot: version %d, digest match %v",
			r2.Latest(), r2.Delta(0).ETag == before.ETag)
	}
	if r2.Generator() != "compact-test" {
		t.Fatalf("generator %q not restored from snapshot", r2.Generator())
	}
	if _, _, err := r2.Publish(testVaccines("cmp2", 3)...); err != nil {
		t.Fatal(err)
	}
	if r2.Latest() != 23 {
		t.Fatalf("post-reboot version %d, want 23", r2.Latest())
	}
}

// TestWALSyncsDirectoryPerSegment pins that every new WAL segment's
// directory entry is fsynced before the segment takes appends: once at
// boot and once at each compaction's rotation, ahead of the snapshot
// rename's own directory fsync. Each wrapped syncDir call records the
// segments and snapshot present when it ran.
func TestWALSyncsDirectoryPerSegment(t *testing.T) {
	dir := t.TempDir()
	var calls []string
	orig := syncDir
	syncDir = func(d string) error {
		var names []string
		for _, seg := range walSegments(t, d) {
			names = append(names, filepath.Base(seg))
		}
		_, err := os.Stat(filepath.Join(d, snapshotName))
		calls = append(calls, fmt.Sprintf("%s snapshot=%v", strings.Join(names, ","), err == nil))
		return orig(d)
	}
	defer func() { syncDir = orig }()

	r := openTestRegistry(t, dir)
	defer r.Close()
	want := []string{"wal-00000001.log snapshot=false"}
	if !slices.Equal(calls, want) {
		t.Fatalf("directory fsyncs after boot = %q, want %q", calls, want)
	}
	if _, _, err := r.Publish(testVaccines("dirsync", 3)...); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	want = append(want,
		"wal-00000001.log,wal-00000002.log snapshot=false", // rotation's new segment
		"wal-00000001.log,wal-00000002.log snapshot=true",  // snapshot rename
	)
	if !slices.Equal(calls, want) {
		t.Fatalf("directory fsyncs after compaction = %q, want %q", calls, want)
	}
}

// TestWALConcurrentPublish exercises the group-commit path under -race:
// many publishers share fsyncs, and nothing is lost across a reboot.
func TestWALConcurrentPublish(t *testing.T) {
	const publishers, perWorker = 8, 10
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := staticVaccine(
					fmt.Sprintf("gc%d/mutex/%d", p, i),
					fmt.Sprintf("GC%d-MARKER-%d", p, i))
				if _, _, err := r.Publish(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	const want = publishers * perWorker
	if r.Latest() != want {
		t.Fatalf("version %d, want %d", r.Latest(), want)
	}
	before := r.Delta(0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestRegistry(t, dir)
	defer r2.Close()
	if r2.Latest() != want || r2.Count() != want {
		t.Fatalf("reboot lost updates: version %d count %d, want %d", r2.Latest(), r2.Count(), want)
	}
	if r2.Delta(0).ETag != before.ETag {
		t.Fatal("reboot digest differs after concurrent publishes")
	}
}

// TestWALReplayOutOfOrderSegment replays a segment whose frames are
// out of version order — logs written by earlier releases, whose
// publishers appended outside the version lock, can hold them: every
// record must load, in version order, under the highest version.
func TestWALReplayOutOfOrderSegment(t *testing.T) {
	dir := t.TempDir()
	vs := testVaccines("ooo", 3)
	f, err := os.Create(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	for _, ver := range []uint64{2, 3, 1} {
		rec := walRecord{Version: ver, Vaccine: vs[ver-1]}
		if err := writeFrame(bw, &rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestRegistry(t, dir)
	defer r.Close()
	d := r.Delta(0)
	if r.Latest() != 3 || len(d.Vaccines) != 3 {
		t.Fatalf("replay: Latest %d, %d vaccines; want 3/3", r.Latest(), len(d.Vaccines))
	}
	for i, v := range d.Vaccines {
		if d.Versions[i] != uint64(i+1) || v.ID != vs[i].ID {
			t.Fatalf("entry %d: %s at version %d, want %s at %d", i, v.ID, d.Versions[i], vs[i].ID, i+1)
		}
	}
}

// TestFailedWALWriteNeverVisible breaks the active segment under a
// live registry: the publish whose append or fsync fails must not be
// served, the failure must stick for every later publish, and a reopen
// must serve exactly the state that was durable before it.
func TestFailedWALWriteNeverVisible(t *testing.T) {
	cases := []struct {
		name  string
		crack func(t *testing.T, w *wal)
	}{
		// The segment is closed: the next append fails.
		{"write", func(t *testing.T, w *wal) {
			if err := w.f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		// A pipe takes the frames but cannot be fsynced: the append
		// succeeds and the sync fails.
		{"fsync", func(t *testing.T, w *wal) {
			pr, pw, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pr.Close(); pw.Close() })
			w.f.Close()
			w.f, w.bw = pw, bufio.NewWriter(pw)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := openTestRegistry(t, dir)
			if _, _, err := r.Publish(testVaccines("dur", 2)...); err != nil {
				t.Fatal(err)
			}
			before := r.Delta(0)
			tc.crack(t, r.wal)
			if _, _, err := r.Publish(staticVaccine("dur/late/0", "DUR-LATE-0001")); err == nil {
				t.Fatal("publish succeeded although its WAL write failed")
			}
			if r.Latest() != 2 || r.Delta(0).ETag != before.ETag || r.Count() != 2 {
				t.Fatalf("failed publish moved the registry: Latest %d, Count %d, digest match %v",
					r.Latest(), r.Count(), r.Delta(0).ETag == before.ETag)
			}
			if d := r.Delta(2); d.Version != 2 || len(d.Vaccines) != 0 {
				t.Fatalf("Delta(2) at Version %d carries %d vaccines: the failed publish is served",
					d.Version, len(d.Vaccines))
			}
			if _, _, err := r.Publish(staticVaccine("dur/later/0", "DUR-LATER-0001")); err == nil {
				t.Fatal("publish after a WAL failure succeeded: the failure must be sticky")
			}
			if r.Latest() != 2 {
				t.Fatalf("Latest %d after the second failed publish, want 2", r.Latest())
			}

			r2 := openTestRegistry(t, dir)
			defer r2.Close()
			if r2.Latest() != 2 || r2.Delta(0).ETag != before.ETag {
				t.Fatalf("reopen serves Latest %d, digest match %v; want the 2 durable vaccines",
					r2.Latest(), r2.Delta(0).ETag == before.ETag)
			}
		})
	}
}

// TestWALCloseIdempotentRefusesPublish pins Close's contract: a second
// Close is a no-op, and a publish after Close is refused without
// moving the version or reaching a delta.
func TestWALCloseIdempotentRefusesPublish(t *testing.T) {
	r := openTestRegistry(t, t.TempDir())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := r.Publish(staticVaccine("closed/mutex/0", "CLOSED-0001")); err == nil {
		t.Fatal("publish after Close accepted")
	}
	if d := r.Delta(0); r.Latest() != 0 || len(d.Vaccines) != 0 {
		t.Fatalf("publish after Close moved Latest to %d and put %d vaccines in Delta(0)",
			r.Latest(), len(d.Vaccines))
	}
}

// TestWALShutdownKeepsAcknowledgedPublishes races eight publishers
// (and the compactions they trigger) against Close while a watcher
// records every Latest() it sees. After a reopen the registry must be
// at least as far as any version a reader was shown, and hold every
// vaccine whose Publish returned nil: shutdown loses nothing that was
// served or acknowledged. Run under -race.
func TestWALShutdownKeepsAcknowledgedPublishes(t *testing.T) {
	const publishers, perWorker = 8, 40
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	r.CompactEvery = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []string
	)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := staticVaccine(
					fmt.Sprintf("shut%d/mutex/%d", p, i),
					fmt.Sprintf("SHUT%d-MARKER-%d", p, i))
				if _, _, err := r.Publish(v); err != nil {
					return // refused: the registry is closed
				}
				mu.Lock()
				acked = append(acked, v.ID)
				mu.Unlock()
			}
		}(p)
	}
	var seen atomic.Uint64
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if v := r.Latest(); v > seen.Load() {
				seen.Store(v)
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	for r.Latest() < publishers*perWorker/4 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	<-watched
	highest := max(seen.Load(), r.Latest())

	r2 := openTestRegistry(t, dir)
	defer r2.Close()
	if r2.Latest() < highest {
		t.Fatalf("reopened at version %d, but a reader was shown %d before shutdown", r2.Latest(), highest)
	}
	held := make(map[string]bool)
	for _, v := range r2.Delta(0).Vaccines {
		held[v.ID] = true
	}
	for _, id := range acked {
		if !held[id] {
			t.Fatalf("acknowledged publish %s lost across shutdown (%d acknowledged, %d recovered)",
				id, len(acked), len(held))
		}
	}
}

func TestOpenRegistryRejectsEmptyDir(t *testing.T) {
	if _, err := OpenRegistry("", 0); err == nil {
		t.Fatal("OpenRegistry(\"\") must fail")
	}
}
