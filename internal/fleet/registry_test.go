package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autovac/internal/determinism"
	"autovac/internal/impact"
	"autovac/internal/isa"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// staticVaccine builds a minimal valid static mutex vaccine.
func staticVaccine(id, ident string) vaccine.Vaccine {
	return vaccine.Vaccine{
		ID: id, Sample: "sim", Resource: winenv.KindMutex,
		Identifier: ident, Class: determinism.Static,
		Op: "create", API: "CreateMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.DirectInjection,
	}
}

// testVaccines builds n distinct static vaccines with the given prefix.
func testVaccines(prefix string, n int) []vaccine.Vaccine {
	vs := make([]vaccine.Vaccine, n)
	for i := range vs {
		vs[i] = staticVaccine(
			fmt.Sprintf("%s/mutex/%d", prefix, i),
			fmt.Sprintf("%s-MARKER-%04d", prefix, i))
	}
	return vs
}

func TestPublishAssignsMonotonicVersions(t *testing.T) {
	r := NewRegistry(4)
	ver, stored, err := r.Publish(testVaccines("w1", 10)...)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 10 || stored != 10 {
		t.Fatalf("got version %d stored %d, want 10/10", ver, stored)
	}
	d := r.Delta(0)
	if len(d.Vaccines) != 10 || d.Version != 10 || !d.Complete {
		t.Fatalf("bad full delta: %d vaccines, version %d, complete %v",
			len(d.Vaccines), d.Version, d.Complete)
	}
}

func TestRepublishUnchangedIsNoOp(t *testing.T) {
	r := NewRegistry(0)
	vs := testVaccines("idem", 5)
	r.Publish(vs...)
	ver, stored, err := r.Publish(vs...)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 || ver != 5 {
		t.Fatalf("unchanged republish stored %d, version %d; want 0, 5", stored, ver)
	}
	// Changing one vaccine's content bumps only that vaccine.
	vs[2].Identifier = "idem-CHANGED"
	ver, stored, _ = r.Publish(vs...)
	if stored != 1 || ver != 6 {
		t.Fatalf("changed republish stored %d, version %d; want 1, 6", stored, ver)
	}
	if d := r.Delta(5); len(d.Vaccines) != 1 || d.Vaccines[0].Identifier != "idem-CHANGED" {
		t.Fatalf("delta after republish wrong: %+v", d.Vaccines)
	}
	if r.Count() != 5 {
		t.Fatalf("count %d after in-place update, want 5", r.Count())
	}
}

func TestPublishRejectsInvalid(t *testing.T) {
	r := NewRegistry(0)
	bad := staticVaccine("bad/mutex/0", "")
	if _, _, err := r.Publish(bad); err == nil {
		t.Fatal("invalid vaccine accepted")
	}
}

// TestPublishRefusesUnreplayableSlice checks the behavioural gate: a
// vaccine that passes record validation but whose replay slice fails
// the static verifier (here: an infinite loop) must never enter the
// registry, and a failed batch must not bump the version.
func TestPublishRefusesUnreplayableSlice(t *testing.T) {
	b := isa.NewBuilder("evil-slice")
	b.Label("top").Inc(isa.R(isa.EAX)).Jmp("top").Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v := staticVaccine("evil/mutex/0", "EVIL-0001")
	v.Class = determinism.AlgorithmDeterministic
	v.Slice = &determinism.Slice{Program: prog, ResultAddr: 0x00500000,
		API: "CreateMutexA", SourceSteps: 2}
	if err := v.Validate(); err != nil {
		t.Fatalf("record validation must pass for this test to bite: %v", err)
	}
	r := NewRegistry(0)
	if _, _, err := r.Publish(v); err == nil {
		t.Fatal("vaccine with an unreplayable slice accepted for distribution")
	}
	if r.Count() != 0 || r.Latest() != 0 {
		t.Fatalf("refused publish left state behind: count %d version %d", r.Count(), r.Latest())
	}
}

// TestPublishRefusesUnsafeSinkhole checks the sinkhole rule at the
// registry: a domain vaccine that would blackhole benign traffic or an
// unqualified name is refused for distribution, as cmd/vaccheck
// refuses it.
func TestPublishRefusesUnsafeSinkhole(t *testing.T) {
	for _, host := range []string{"update.microsoft.com", "localhost"} {
		v := staticVaccine("net/domain/"+host, host)
		v.Resource = winenv.KindDomain
		v.Op, v.API = "open", "gethostbyname"
		v.Polarity = vaccine.BlockAccess
		if err := v.Validate(); err != nil {
			t.Fatalf("record validation must pass for this test to bite: %v", err)
		}
		r := NewRegistry(0)
		if _, _, err := r.Publish(v); err == nil || !strings.Contains(err.Error(), "sinkhole rule") {
			t.Fatalf("BlockAccess vaccine for %q: Publish err = %v, want a sinkhole-rule refusal", host, err)
		}
		if r.Count() != 0 || r.Latest() != 0 {
			t.Fatalf("refused publish left state behind: count %d version %d", r.Count(), r.Latest())
		}
	}
}

func TestDeltaOrderedAndEtagStable(t *testing.T) {
	r := NewRegistry(8)
	r.Publish(testVaccines("e", 20)...)
	d1, d2 := r.Delta(0), r.Delta(0)
	if d1.ETag != d2.ETag {
		t.Fatal("delta ETag unstable across identical reads")
	}
	for i := 1; i < len(d1.Vaccines); i++ {
		// Identifiers embed a zero-padded publish index, so version
		// order must equal identifier order.
		if d1.Vaccines[i-1].Identifier >= d1.Vaccines[i].Identifier {
			t.Fatalf("delta not in version order at %d", i)
		}
	}
	tail := r.Delta(15)
	if len(tail.Vaccines) != 5 || tail.Complete {
		t.Fatalf("tail delta: %d vaccines, complete %v", len(tail.Vaccines), tail.Complete)
	}
	if tail.ETag == d1.ETag {
		t.Fatal("tail delta shares ETag with full pack")
	}
}

func TestCheckinAndFleetStatus(t *testing.T) {
	r := NewRegistry(0)
	r.Publish(testVaccines("f", 3)...)
	now := time.Now()
	r.Checkin(CheckinRequest{Host: "A", Version: 3, Installed: 3, Inspected: 10, Intercepted: 2}, now)
	r.Checkin(CheckinRequest{Host: "B", Version: 2, Installed: 2}, now)
	r.Checkin(CheckinRequest{Host: "STALE", Version: 1}, now.Add(-time.Hour))
	st := r.Fleet(time.Minute, now)
	if st.ActiveHosts != 2 || st.Converged != 1 || st.MinVersion != 2 {
		t.Fatalf("fleet status %+v", st)
	}
	if st.Intercepted != 2 || st.Installed != 5 {
		t.Fatalf("fleet aggregates %+v", st)
	}
	// A re-checkin replaces, not duplicates.
	resp := r.Checkin(CheckinRequest{Host: "B", Version: 3, Installed: 3}, now)
	if resp.Version != 3 {
		t.Fatalf("checkin ack version %d, want 3", resp.Version)
	}
	if st := r.Fleet(time.Minute, now); st.ActiveHosts != 2 || st.Converged != 2 {
		t.Fatalf("fleet status after update %+v", st)
	}
}

// TestConcurrentRegistryAccess races ≥100 goroutines mixing publishes,
// delta reads, and check-ins, then asserts no update was lost and the
// version stream is dense and monotonic. Run under -race.
func TestConcurrentRegistryAccess(t *testing.T) {
	const (
		publishers = 40
		readers    = 40
		checkers   = 40
		perWorker  = 25
	)
	r := NewRegistry(0)
	now := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := staticVaccine(
					fmt.Sprintf("pub%d/mutex/%d", p, i),
					fmt.Sprintf("PUB%d-MARKER-%d", p, i))
				if _, _, err := r.Publish(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastVer uint64
			since := uint64(g % 7)
			for i := 0; i < perWorker; i++ {
				d := r.Delta(since)
				if d.Version < lastVer {
					t.Errorf("reader %d: version went backwards %d -> %d", g, lastVer, d.Version)
					return
				}
				lastVer = d.Version
				seen := make(map[string]bool, len(d.Vaccines))
				for _, v := range d.Vaccines {
					if seen[v.ID] {
						t.Errorf("reader %d: duplicate %s in one delta", g, v.ID)
						return
					}
					seen[v.ID] = true
				}
			}
		}(g)
	}
	for c := 0; c < checkers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Checkin(CheckinRequest{
					Host:    fmt.Sprintf("HOST-%d", c),
					Version: uint64(i),
				}, now)
			}
		}(c)
	}
	wg.Wait()

	const want = publishers * perWorker
	if got := r.Latest(); got != want {
		t.Fatalf("final version %d, want %d (every publish must get a version)", got, want)
	}
	d := r.Delta(0)
	if len(d.Vaccines) != want {
		t.Fatalf("lost updates: %d vaccines stored, want %d", len(d.Vaccines), want)
	}
	if st := r.Fleet(time.Minute, now); st.ActiveHosts != checkers {
		t.Fatalf("active hosts %d, want %d", st.ActiveHosts, checkers)
	}
}

// TestDeltaConcurrentPublishLinearizability races publishers of
// distinct-ID vaccines against delta readers that chase the version
// line the way agents do: each reader asks for the delta since its
// cursor and advances the cursor to the Version it gets. Two invariants
// hold on every read and at the end. With distinct IDs the version
// stream is dense, so a delta since s with Version v carries exactly
// v-s vaccines — a body shorter than the range it claims is a torn
// fence, and an agent adopting that Version would never fetch the gap.
// And once the publishers stop, every reader has collected each
// published vaccine exactly once: a publish still in flight at one
// read is fetched by a later one, never skipped. The WAL case adds the
// fsync before the fence moves, and compactions between the reads. Run
// under -race.
func TestDeltaConcurrentPublishLinearizability(t *testing.T) {
	t.Run("memory", func(t *testing.T) { checkLinearizable(t, NewRegistry(0)) })
	t.Run("wal", func(t *testing.T) {
		r := openTestRegistry(t, t.TempDir())
		defer r.Close()
		r.CompactEvery = 64
		checkLinearizable(t, r)
	})
}

func checkLinearizable(t *testing.T, r *Registry) {
	const publishers, perWorker, readers = 8, 40, 8
	const total = publishers * perWorker
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := staticVaccine(
					fmt.Sprintf("lin%d/mutex/%d", p, i),
					fmt.Sprintf("LIN%d-MARKER-%d", p, i))
				if _, _, err := r.Publish(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	collected := make([]map[string]int, readers)
	var rwg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			seen := make(map[string]int)
			collected[g] = seen
			var since uint64
			read := func() bool {
				d := r.Delta(since)
				if len(d.Vaccines) != int(d.Version-since) {
					t.Errorf("reader %d: delta since %d claims Version %d but carries %d vaccines",
						g, since, d.Version, len(d.Vaccines))
					return false
				}
				for _, v := range d.Vaccines {
					seen[v.ID]++
				}
				since = d.Version
				return true
			}
			for {
				select {
				case <-stop:
					// The publishers are done: one last read collects the tail.
					read()
					return
				default:
				}
				if !read() {
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	if r.Latest() != total {
		t.Fatalf("final version %d, want %d", r.Latest(), total)
	}
	for g, seen := range collected {
		if len(seen) != total {
			t.Errorf("reader %d collected %d distinct vaccines, want %d", g, len(seen), total)
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("reader %d collected %s %d times, want once", g, id, n)
			}
		}
	}
}

// TestReplacedVaccineServedUntilReplacementVisible pins the log's
// replacement rule: an entry replaced by a publish still in flight
// (stored, but above the fence) keeps being served at its old version,
// and replaced entries are dropped once the fence passes their
// replacement, so the log stays proportional to the live pack however
// often a vaccine changes.
func TestReplacedVaccineServedUntilReplacementVisible(t *testing.T) {
	r := NewRegistry(0)
	vs := testVaccines("repl", 4)
	if _, _, err := r.Publish(vs...); err != nil {
		t.Fatal(err)
	}
	before := r.Delta(0)
	// Store a replacement without raising the fence, as a publish does
	// between storing its batch and its WAL fsync.
	vs[1].Identifier = "repl-IN-FLIGHT"
	r.mu.Lock()
	r.store(regEntry{v: vs[1], fp: vs[1].Fingerprint(), version: r.last + 1})
	r.mu.Unlock()
	if r.Delta(0).ETag != before.ETag || r.Count() != 4 {
		t.Fatal("a replacement above the fence changed what readers see")
	}
	r.raise(5)
	if d := r.Delta(4); len(d.Vaccines) != 1 || d.Vaccines[0].Identifier != "repl-IN-FLIGHT" || r.Count() != 4 {
		t.Fatalf("visible replacement: delta %+v, count %d", d.Vaccines, r.Count())
	}
	for i := 0; i < 100; i++ {
		vs[0].Identifier = fmt.Sprintf("repl-CHANGED-%03d", i)
		if _, _, err := r.Publish(vs...); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.log) > 2*len(r.newest)+1 {
		t.Fatalf("log holds %d entries for %d vaccines: replaced entries are never dropped", len(r.log), len(r.newest))
	}
	d := r.Delta(0)
	if len(d.Vaccines) != 4 || d.Version != 105 || d.Vaccines[3].Identifier != "repl-CHANGED-099" {
		t.Fatalf("full delta after 100 replacements: Version %d, %d vaccines, last %q",
			d.Version, len(d.Vaccines), d.Vaccines[len(d.Vaccines)-1].Identifier)
	}
}

// TestFleetMinVersionIncludesZero pins the MinVersion sentinel fix: a
// fresh host legitimately heartbeats version 0, and the old zero-means-
// unset logic skipped it, reporting a later host's version as the
// fleet minimum.
func TestFleetMinVersionIncludesZero(t *testing.T) {
	cases := []struct {
		name     string
		versions []uint64
		want     uint64
	}{
		{"fresh-host-at-zero", []uint64{3, 0, 2}, 0},
		{"single-zero", []uint64{0}, 0},
		{"all-nonzero", []uint64{3, 2, 7}, 2},
		{"single-host", []uint64{5}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(0)
			now := time.Now()
			for i, v := range tc.versions {
				r.Checkin(CheckinRequest{Host: fmt.Sprintf("MIN-%d", i), Version: v}, now)
			}
			st := r.Fleet(time.Minute, now)
			if st.ActiveHosts != len(tc.versions) {
				t.Fatalf("active %d, want %d", st.ActiveHosts, len(tc.versions))
			}
			if st.MinVersion != tc.want {
				t.Fatalf("MinVersion %d, want %d", st.MinVersion, tc.want)
			}
		})
	}
}

// TestShardRoundingAndSkip pins the heartbeat table's power-of-two
// rounding and the empty delta at the tip.
func TestShardRoundingAndSkip(t *testing.T) {
	r := NewRegistry(5) // rounds up to 8
	if len(r.hostTab) != 8 {
		t.Fatalf("heartbeat shard count %d, want 8", len(r.hostTab))
	}
	r.Publish(testVaccines("s", 16)...)
	// A since at the latest version returns an empty delta.
	if d := r.Delta(r.Latest()); len(d.Vaccines) != 0 {
		t.Fatalf("empty delta has %d vaccines", len(d.Vaccines))
	}
}
