// Benchmark harness for the distribution subsystem, following the
// repo's top-level bench_test.go conventions: deterministic seeds,
// fixed workload sizes per iteration, b.Fatal on error. Run with:
//
//	go test -bench=. -benchmem ./internal/fleet
package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autovac/internal/malware"
)

// benchRegistrySize is the steady-state registry population: the same
// order of magnitude as the paper's 1,716-sample corpus after fleet
// dedupe.
const benchRegistrySize = 1024

func benchServer(b *testing.B) *Server {
	b.Helper()
	srv := NewServer(NewRegistry(0))
	if _, _, err := srv.Registry().Publish(testVaccines("bench", benchRegistrySize)...); err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkRegistryDeltaSync measures GET /v1/packs through the full
// handler stack (instrumentation, delta assembly, digest, JSON) for
// the three steady-state cases: a cold full sync, a near-tip delta,
// and the 304 fast path every converged host hits each poll.
func BenchmarkRegistryDeltaSync(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	latest := srv.Registry().Latest()
	cases := []struct {
		name  string
		since uint64
	}{
		{"full", 0},
		{"tail16", latest - 16},
		{"notmodified", latest},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			url := fmt.Sprintf("%s?since=%d", PathPacks, c.since)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodGet, url, nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK && w.Code != http.StatusNotModified {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}

// BenchmarkRegistryDelta times Registry.Delta itself — a full and a
// tail-2 delta of a benchRegistrySize registry. BenchmarkRegistryDeltaSync
// cannot: after its first iteration the handler serves every request
// from the encode cache, so it never reaches the store.
func BenchmarkRegistryDelta(b *testing.B) {
	reg := benchServer(b).Registry()
	cases := []struct {
		name  string
		since uint64
		want  int
	}{
		{"full", 0, benchRegistrySize},
		{"tail2", reg.Latest() - 2, 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := reg.Delta(c.since); len(d.Vaccines) != c.want {
					b.Fatalf("delta since %d carries %d vaccines, want %d", c.since, len(d.Vaccines), c.want)
				}
			}
		})
	}
}

// BenchmarkCheckin measures POST /v1/checkin with many concurrent
// hosts heartbeating, the fleet's background load at scale.
func BenchmarkCheckin(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		host := 0
		for pb.Next() {
			host++
			body := fmt.Sprintf(
				`{"Host":"BENCH-PC-%04d","Version":%d,"Installed":%d,"Inspected":128,"Intercepted":3}`,
				host%4096, benchRegistrySize, benchRegistrySize)
			req := httptest.NewRequest(http.MethodPost, PathCheckin, strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
	if st := srv.Registry().Fleet(time.Hour, time.Now()); st.ActiveHosts == 0 {
		b.Fatal("no hosts recorded")
	}
}

// BenchmarkWormSim measures one full epidemic simulation: worm
// propagation across an emulated fleet racing the vaccine delta sync.
func BenchmarkWormSim(b *testing.B) {
	const killswitch = "bench-killswitch.example"
	gen := malware.NewGenerator(7)
	worm, err := gen.WormSample(killswitch)
	if err != nil {
		b.Fatal(err)
	}
	sc := malware.WormScenario(killswitch)
	vs := testVaccines("worm", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulateWorm(WormConfig{
			Hosts: 48, Waves: 8, Fanout: 2, Seed: 11,
			Worm: worm, Scenario: sc, Vaccines: vs,
			PublishWave: 2, SyncLatency: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalInfected() == 0 {
			b.Fatal("no infections")
		}
	}
}

// BenchmarkControlPlaneConvergence measures one publish wave reaching
// a small in-process fleet under both sync modes. The interesting
// numbers are the reported metrics (convergence wall-clock and wire
// bytes), not ns/op; CI runs it at -benchtime 1x as a smoke test that
// the scale harness converges at all.
func BenchmarkControlPlaneConvergence(b *testing.B) {
	modes := []struct {
		name     string
		longPoll time.Duration
	}{
		{"poll", 0},
		{"longpoll", 5 * time.Second},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := SimulateControlPlane(context.Background(), ControlPlaneConfig{
					Hosts:        256,
					Waves:        1,
					PollInterval: 50 * time.Millisecond,
					LongPoll:     m.longPoll,
					Seed:         uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Deltas == 0 {
					b.Fatal("no deltas served")
				}
				b.ReportMetric(float64(res.ConvergeTime.Microseconds()), "µs-converge")
				b.ReportMetric(float64(res.BytesOnWire), "wire-bytes")
			}
		})
	}
}

// BenchmarkRegistryPublish measures direct publish throughput,
// including the no-op republish fast path.
func BenchmarkRegistryPublish(b *testing.B) {
	vs := testVaccines("pub", 256)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRegistry(0)
			if _, n, err := r.Publish(vs...); err != nil || n != len(vs) {
				b.Fatalf("stored %d err %v", n, err)
			}
		}
	})
	b.Run("idempotent", func(b *testing.B) {
		r := NewRegistry(0)
		r.Publish(vs...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, n, err := r.Publish(vs...); err != nil || n != 0 {
				b.Fatalf("stored %d err %v", n, err)
			}
		}
	})
}

// BenchmarkRelayTreeConvergence pushes one wave through a small
// two-tier relay tree (agents behind relays behind the origin) and
// reports convergence wall-clock and origin request count. CI runs it
// at -benchtime 1x as a smoke test that the tier converges at all.
func BenchmarkRelayTreeConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := SimulateControlPlane(context.Background(), ControlPlaneConfig{
			Hosts:    256,
			Relays:   4,
			Waves:    1,
			LongPoll: 5 * time.Second,
			Binary:   true,
			Seed:     uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deltas == 0 || res.EdgeRequests == 0 {
			b.Fatalf("relay tree served nothing: %+v", res)
		}
		b.ReportMetric(float64(res.ConvergeTime.Microseconds()), "µs-converge")
		b.ReportMetric(float64(res.OriginRequests), "origin-reqs")
	}
}
