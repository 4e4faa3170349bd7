package main

import (
	"testing"
	"time"
)

func sp(id, parent int32, name string, start, end int) span {
	return span{id: id, parent: parent, name: name,
		start: time.Duration(start) * time.Millisecond, end: time.Duration(end) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(1, 0, "root", 0, 100),
		sp(2, 1, "b", 10, 30),
		sp(3, 1, "c", 20, 50),  // overlaps b: the overlap counts once
		sp(4, 1, "d", 90, 120), // runs past the root: only 90..100 counts
		sp(5, 2, "e", 12, 15),  // grandchild: reduces b, not the root
	}
	want := map[int32]int{1: 50, 2: 17, 3: 30, 4: 30, 5: 3}
	got := selfTimes(spans)
	for id, ms := range want {
		if got[id] != time.Duration(ms)*time.Millisecond {
			t.Errorf("span %d: self %v, want %dms", id, got[id], ms)
		}
	}
}

func TestAggregateDerivesInstall(t *testing.T) {
	spans := []span{
		sp(1, 0, "sync", 0, 10),
		sp(2, 1, "http", 1, 4),
		sp(3, 1, "decode", 50, 52), // re-run after the sync: outside it
		sp(4, 0, "sync", 20, 26),
		sp(5, 4, "http", 21, 25),
	}
	agg := aggregate(spans, "sync", "decode", "install")
	s := agg["sync"]
	if s.calls != 2 || s.busy != 16*time.Millisecond || s.self != 9*time.Millisecond {
		t.Errorf("sync: %+v", s)
	}
	in := agg["install"]
	if in.calls != 2 || in.busy != 7*time.Millisecond {
		t.Errorf("install: %+v, want 2 calls, 5ms+2ms", in)
	}
}

func TestQuantilesAreExact(t *testing.T) {
	mk := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(n-i) * time.Millisecond // descending: must be sorted first
		}
		return sortedCopy(ds)
	}
	s := mk(100)
	if q := quantile(s, 0.5); q != 50*time.Millisecond {
		t.Errorf("p50 of 1..100 = %v", q)
	}
	if _, err := tailQuantile(s, 0.99); err == nil {
		t.Error("p99 of 100 samples has 1 beyond it and must be refused")
	}
	if q, err := tailQuantile(s, 0.90); err != nil || q != 90*time.Millisecond {
		t.Errorf("p90 of 1..100 = %v, %v", q, err)
	}
	if q, err := tailQuantile(mk(1000), 0.99); err != nil || q != 990*time.Millisecond {
		t.Errorf("p99 of 1..1000 = %v, %v", q, err)
	}
	if _, err := tailQuantile(mk(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
