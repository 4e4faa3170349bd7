package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autovac/internal/winenv"
)

// relayHarness is one origin + one relay over real loopback HTTP.
type relayHarness struct {
	origin *Server
	relay  *Relay
	// originTS serves whatever handler swapOrigin last installed —
	// restart tests swap in a fresh origin under the same URL, exactly
	// like a process restart behind a stable address.
	originTS *httptest.Server
	relayTS  *httptest.Server
	handler  atomic.Pointer[http.Handler]
}

func newRelayHarness(t *testing.T) *relayHarness {
	t.Helper()
	h := &relayHarness{origin: NewServer(NewRegistry(0))}
	h.origin.Registry().SetGenerator("relay-test")
	hl := h.origin.Handler()
	h.handler.Store(&hl)
	h.originTS = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(h.originTS.Close)
	rl, err := NewRelay(RelayConfig{
		Upstream: h.originTS.URL,
		LongPoll: time.Second,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.relay = rl
	h.relayTS = httptest.NewServer(rl.Handler())
	t.Cleanup(h.relayTS.Close)
	return h
}

// swapOrigin replaces the origin with a fresh server under the same
// URL — the restart-without-WAL scenario.
func (h *relayHarness) swapOrigin(srv *Server) {
	h.origin = srv
	hl := srv.Handler()
	h.handler.Store(&hl)
}

// assertMirrored fails unless the relay's full pack set is
// digest-identical to the origin's, versions included.
func assertMirrored(t *testing.T, origin *Registry, relay *Relay) {
	t.Helper()
	od, rd := origin.Delta(0), relay.Registry().Delta(0)
	if od.ETag != rd.ETag {
		t.Fatalf("relay pack digest %s != origin %s (%d vs %d vaccines)",
			rd.ETag, od.ETag, len(rd.Vaccines), len(od.Vaccines))
	}
	if od.Version != rd.Version || relay.Version() != od.Version {
		t.Fatalf("relay version %d/%d != origin %d", rd.Version, relay.Version(), od.Version)
	}
	for i := range od.Versions {
		if od.Versions[i] != rd.Versions[i] {
			t.Fatalf("version line diverged at %d: relay %d != origin %d",
				i, rd.Versions[i], od.Versions[i])
		}
	}
}

// TestRelayMirrorsOriginExactly drives the mirror through mid-flight
// publishes and checks digest identity at every hop: origin registry,
// relay mirror, and an agent synced through the relay.
func TestRelayMirrorsOriginExactly(t *testing.T) {
	h := newRelayHarness(t)
	ctx := context.Background()

	h.origin.Registry().Publish(testVaccines("m1", 8)...)
	if n, err := h.relay.SyncOnce(ctx); err != nil || n != 8 {
		t.Fatalf("first sync: %d vaccines, %v", n, err)
	}
	assertMirrored(t, h.origin.Registry(), h.relay)

	// Publishes land between relay syncs; the incremental delta must
	// keep the mirror exact (same content AND same version numbers).
	h.origin.Registry().Publish(testVaccines("m2", 5)...)
	h.origin.Registry().Publish(testVaccines("m3", 3)...)
	if n, err := h.relay.SyncOnce(ctx); err != nil || n != 8 {
		t.Fatalf("incremental sync: %d vaccines, %v", n, err)
	}
	assertMirrored(t, h.origin.Registry(), h.relay)

	// An agent syncing off the relay converges to the origin's version
	// and holds the same pack content.
	a := newTestAgent(h.relayTS, "RELAY-AGENT-01")
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Version() != h.origin.Registry().Latest() {
		t.Fatalf("agent at %d, origin at %d", a.Version(), h.origin.Registry().Latest())
	}
	if a.Daemon().VaccineCount() != h.origin.Registry().Count() {
		t.Fatalf("agent holds %d vaccines, origin %d",
			a.Daemon().VaccineCount(), h.origin.Registry().Count())
	}
	if st := h.relay.Stats(); st.Deltas != 2 || st.Resyncs != 0 {
		t.Fatalf("relay stats %+v", st)
	}
}

// TestRelayPushPropagation runs the relay's long-poll loop for real: a
// downstream agent parks on the relay, the relay parks on the origin,
// and a publish at the origin must reach the agent at publish latency
// through both parked hops.
func TestRelayPushPropagation(t *testing.T) {
	h := newRelayHarness(t)
	h.origin.Registry().Publish(testVaccines("p0", 1)...)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); h.relay.Run(ctx) }()

	id := winenv.DefaultIdentity()
	id.ComputerName = "RELAY-PUSH-PC"
	a := NewAgent(AgentConfig{
		BaseURL:  h.relayTS.URL,
		Env:      winenv.New(id),
		Seed:     3,
		LongPoll: 5 * time.Second,
	})
	wg.Add(1)
	go func() { defer wg.Done(); a.Run(ctx, time.Hour) }()

	// Wait for the first delta to land, then publish mid-park.
	deadline := time.Now().Add(5 * time.Second)
	for h.relay.Version() != 1 || h.relay.Registry().Fleet(time.Minute, time.Now()).ActiveHosts != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("relay/agent never reached steady state: relay at %d", h.relay.Version())
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.origin.Registry().Publish(testVaccines("p1", 2)...)
	target := h.origin.Registry().Latest()
	for {
		st := h.relay.Registry().Fleet(time.Minute, time.Now())
		if st.ActiveHosts == 1 && st.MinVersion == target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish never pushed through the tier: fleet %+v, relay at %d",
				st, h.relay.Version())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	assertMirrored(t, h.origin.Registry(), h.relay)
}

// TestRelayResetPropagation restarts the origin without its version
// history: the relay must rebase its mirror on the rewound version
// line, and an agent that synced through the relay before the restart
// must be rebased in turn by the relay's own Reset path.
func TestRelayResetPropagation(t *testing.T) {
	h := newRelayHarness(t)
	ctx := context.Background()
	h.origin.Registry().Publish(testVaccines("old", 6)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	a := newTestAgent(h.relayTS, "RELAY-RESET-PC")
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Version() != 6 {
		t.Fatalf("agent at %d before restart, want 6", a.Version())
	}

	// Origin restarts empty and republishes a smaller pack: its version
	// line is now BELOW the relay's cursor.
	fresh := NewServer(NewRegistry(0))
	fresh.Registry().SetGenerator("relay-test")
	fresh.Registry().Publish(testVaccines("new", 2)...)
	h.swapOrigin(fresh)

	// The relay's next poll (since=6 against a version-2 origin) gets a
	// Reset delta and rebases the mirror.
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := h.relay.Stats(); st.Resyncs != 1 {
		t.Fatalf("relay resyncs %d, want 1", st.Resyncs)
	}
	assertMirrored(t, fresh.Registry(), h.relay)

	// The agent (cursor 6, ahead of the relay's rewound line) is rebased
	// by the relay's own since-ahead path.
	if _, err := a.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Version() != 2 {
		t.Fatalf("agent at %d after reset, want 2", a.Version())
	}
	if st := a.Stats(); st.Resyncs != 1 {
		t.Fatalf("agent resyncs %d, want 1", st.Resyncs)
	}
}

// TestRelayResetNeverServesEmptyMirror rebases the relay through a run
// of upstream restarts while readers poll the mirror's full delta:
// each Reset must swap the mirror's content in one step, so no reader
// ever sees Version 0, an empty body, or a body short of the Version it
// claims while the upstream holds content.
func TestRelayResetNeverServesEmptyMirror(t *testing.T) {
	const first, resets = 40, 20
	h := newRelayHarness(t)
	ctx := context.Background()
	h.origin.Registry().Publish(testVaccines("reset40", first)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := h.relay.Registry().Delta(0); d.Version == 0 || len(d.Vaccines) != int(d.Version) {
					t.Errorf("reader %d: mirror served Version %d with %d vaccines mid-reset",
						g, d.Version, len(d.Vaccines))
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	// Each restarted origin holds one vaccine fewer than the mirror's
	// cursor, so every sync is a Reset.
	for n := first - 1; n >= first-resets; n-- {
		fresh := NewServer(NewRegistry(0))
		fresh.Registry().SetGenerator("relay-test")
		fresh.Registry().Publish(testVaccines(fmt.Sprintf("reset%d", n), n)...)
		h.swapOrigin(fresh)
		if _, err := h.relay.SyncOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.relay.Stats(); st.Resyncs != resets {
		t.Fatalf("relay resyncs %d, want %d", st.Resyncs, resets)
	}
	assertMirrored(t, h.origin.Registry(), h.relay)
}

// TestRelayCacheInvalidationOnVersionBump pins the relay's encode
// cache across upstream version bumps: repeated downstream fetches at
// one cursor are cache hits, and a mirrored publish must invalidate
// them — the next fetch serves the new pack set, not the cached body.
func TestRelayCacheInvalidationOnVersionBump(t *testing.T) {
	h := newRelayHarness(t)
	ctx := context.Background()
	h.origin.Registry().Publish(testVaccines("c1", 4)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}

	fetch := func() (string, int) {
		t.Helper()
		resp, err := http.Get(h.relayTS.URL + PathPacks + "?since=0")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("ETag"), len(body)
	}

	etag1, size1 := fetch()
	etag2, _ := fetch()
	if etag1 != etag2 {
		t.Fatal("cached fetches disagree")
	}
	if hits := h.relay.Server().MetricsSnapshot().EncodeCacheHits; hits != 1 {
		t.Fatalf("EncodeCacheHits = %d, want 1", hits)
	}

	// Version bump at the origin, mirrored into the relay: the cached
	// since=0 body is for a version that no longer exists.
	h.origin.Registry().Publish(testVaccines("c2", 4)...)
	if _, err := h.relay.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	etag3, size3 := fetch()
	if etag3 == etag1 || size3 <= size1 {
		t.Fatalf("stale cache served after version bump: etag %s size %d (was %s/%d)",
			etag3, size3, etag1, size1)
	}
	od := h.origin.Registry().Delta(0)
	if etag3 != `"`+od.ETag+`"` {
		t.Fatalf("post-bump ETag %s != origin digest %q", etag3, od.ETag)
	}
}

// TestRelayRefusesJSONUpstream pins the fail-fast: a relay pointed at
// an upstream that cannot speak the binary codec must error rather
// than mirror a version-less delta.
func TestRelayRefusesJSONUpstream(t *testing.T) {
	srv := NewServer(NewRegistry(0))
	srv.Registry().Publish(testVaccines("j", 2)...)
	// A pre-codec origin: honours the protocol but ignores Accept.
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		srv.Handler().ServeHTTP(w, r)
	}))
	defer legacy.Close()
	rl, err := NewRelay(RelayConfig{Upstream: legacy.URL, LongPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rl.SyncOnce(context.Background()); err == nil {
		t.Fatal("relay accepted a JSON upstream")
	}
	if rl.Version() != 0 || rl.Registry().Count() != 0 {
		t.Fatal("refused delta still mutated the mirror")
	}
}

// TestRelayRefusesDisorderedVersionLine feeds the relay a binary delta
// whose version line is not the ascending run within (Since, Version]
// that Delta produces: the mirror keeps its log in version order, so
// the delta must be refused and leave the mirror untouched.
func TestRelayRefusesDisorderedVersionLine(t *testing.T) {
	reg := NewRegistry(0)
	reg.Publish(testVaccines("order", 2)...)
	d := reg.Delta(0)
	d.Versions = []uint64{2, 1}
	body, err := EncodeDeltaBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentTypeDelta)
		w.Write(body)
	}))
	defer upstream.Close()
	rl, err := NewRelay(RelayConfig{Upstream: upstream.URL, LongPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rl.SyncOnce(context.Background()); err == nil {
		t.Fatal("relay mirrored a descending version line")
	}
	if rl.Version() != 0 || rl.Registry().Count() != 0 {
		t.Fatal("refused delta still mutated the mirror")
	}
}
