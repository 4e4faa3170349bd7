package main

import (
	"context"
	"slices"
	"strings"
	"testing"
)

func TestCheckCorpusRejectsCorruptedPass(t *testing.T) {
	good := corpusOutput{digest: "abc", vaccines: 7, published: 7}
	if f := checkCorpus(good, "abc"); len(f) != 0 {
		t.Fatalf("clean pass failed: %v", f)
	}
	for name, bad := range map[string]corpusOutput{
		"digest":    {digest: "abd", vaccines: 7, published: 7},
		"published": {digest: "abc", vaccines: 7, published: 6},
	} {
		if f := checkCorpus(bad, "abc"); len(f) != 1 {
			t.Errorf("%s: got %d failures %v, want 1", name, len(f), f)
		}
	}
}

func TestCheckHostRejectsCorruptedHost(t *testing.T) {
	good := hostOutput{host: "h", version: 9, want: 9, installed: 5, wantVaccines: 5}
	if f := checkHost(good); len(f) != 0 {
		t.Fatalf("clean host failed: %v", f)
	}
	corrupt := []func(*hostOutput){
		func(h *hostOutput) { h.version = 8 },
		func(h *hostOutput) { h.installed = 4 },
		func(h *hostOutput) { h.failed = 1 },
		func(h *hostOutput) { h.decodeErrors = 1 },
		func(h *hostOutput) { h.retries = 1 },
	}
	for i, c := range corrupt {
		h := good
		c(&h)
		if f := checkHost(h); len(f) != 1 {
			t.Errorf("corruption %d: got %v, want one failure", i, f)
		}
	}
}

func TestCheckWaveRejectsCorruptedWave(t *testing.T) {
	good := waveOutput{hosts: 3, originETag: "e", relayETag: "e", deltas: 3, notModified: 6,
		pulled: 2, wantPerWave: 2}
	if f := checkWave(good); len(f) != 0 {
		t.Fatalf("clean wave failed: %v", f)
	}
	corrupt := []func(*waveOutput){
		func(w *waveOutput) { w.behind = 1 },
		func(w *waveOutput) { w.relayETag = "f" },
		func(w *waveOutput) { w.deltas = 4 },
		func(w *waveOutput) { w.notModified = 5 },
		func(w *waveOutput) { w.retries = 2 },
		func(w *waveOutput) { w.pulled = 1 },
		func(w *waveOutput) { w.installedMiss = 1 },
	}
	for i, c := range corrupt {
		w := good
		c(&w)
		if f := checkWave(w); len(f) != 1 {
			t.Errorf("corruption %d: got %v, want one failure", i, f)
		}
	}
}

// TestCorpusPassChecksDigest runs real corpus passes, untraced and
// traced, and then one against a corrupted pinned digest.
func TestCorpusPassChecksDigest(t *testing.T) {
	ctx := context.Background()
	b, err := setupCorpus(ctx, corpusConfig{tableII: 12, hashPerBand: 1, clinic: true}, 3, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	pass := func(k int, tr *tracer) *passResult {
		t.Helper()
		if err := b.prepare(ctx, k); err != nil {
			t.Fatal(err)
		}
		pr, err := b.pass(ctx, k, tr)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	// The traced pass must reproduce the untraced pass's digest.
	plain, traced := pass(0, nil), pass(1, newTracer())
	if len(plain.failures)+len(traced.failures) != 0 {
		t.Fatalf("clean passes failed: %v %v", plain.failures, traced.failures)
	}
	b.digest = "corrupted"
	bad := pass(2, nil)
	if len(bad.failures) != 1 || !strings.Contains(bad.failures[0], "digest") {
		t.Fatalf("corrupted digest: failures %v", bad.failures)
	}
}

// TestFleetPassesAreClean runs a small untraced and a small traced pass
// of each fleet workload. Every server span of the traced pass must sit
// under the HTTP span of the request it served, and every decode re-run
// under a sync span.
func TestFleetPassesAreClean(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []fleetConfig{{hosts: 4}, {waves: true, hosts: 3}} {
		b, err := setupFleet(ctx, cfg, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for k, tr := range []*tracer{nil, newTracer()} {
			if err := b.prepare(ctx, k); err != nil {
				t.Fatal(err)
			}
			pr, err := b.pass(ctx, k, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(pr.failures) != 0 || pr.attempted == 0 {
				t.Errorf("waves=%v pass %d: attempted %d, failures %v", cfg.waves, k, pr.attempted, pr.failures)
			}
			if cfg.waves && len(pr.waves) != wavesPerPass {
				t.Errorf("pass %d timed %d waves, want %d", k, len(pr.waves), wavesPerPass)
			}
			if tr != nil {
				checkSpanTree(t, tr)
			}
		}
		if err := b.close(); err != nil {
			t.Fatal(err)
		}
	}
}

func checkSpanTree(t *testing.T, tr *tracer) {
	t.Helper()
	spans, _ := tr.take()
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	wantParent := map[string][]string{
		"fleet.server.packs_200": {"http.packs"},
		"fleet.server.packs_304": {"http.packs"},
		"fleet.server.checkin":   {"http.checkin"},
		"http.packs":             {"fleet.agent.sync"},
		"http.checkin":           {"fleet.agent.sync"},
		"fleet.codec.decode":     {"fleet.agent.sync"},
	}
	seen := 0
	for _, s := range spans {
		want, ok := wantParent[s.name]
		if !ok {
			continue
		}
		seen++
		p, ok := byID[s.parent]
		if !ok || !slices.Contains(want, p.name) || p.req != s.req {
			t.Fatalf("%s span (request %d) has parent %q (request %d), want one of %v of the same request",
				s.name, s.req, p.name, p.req, want)
		}
	}
	if seen == 0 {
		t.Fatal("traced pass recorded no HTTP, server or decode spans")
	}
}
