package main

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and
// end are offsets from the tracer's epoch, so spans from every
// goroutine share one clock.
type span struct {
	id     int32
	parent int32 // 0 for a root
	name   string
	start  time.Duration
	end    time.Duration
	// req identifies the request the span belongs to: the sample index
	// (corpus) or host × wave (fleet).
	req int64
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the same call sites serve the untraced run.
type tracer struct {
	epoch  time.Time
	next   atomic.Int32
	mu     sync.Mutex
	spans  []span
	calls  map[string]int // spans recorded, by name
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), calls: make(map[string]int), counts: make(map[string]int64)}
}

// addCount adds n to a named per-layer count, such as a layer's bytes
// or vaccines.
func (t *tracer) addCount(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// openSpan is a started span; close records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int32, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		id: t.next.Add(1), parent: parent, name: name, req: req, start: time.Since(t.epoch),
	}}
}

// id is the span's identifier, for its children (0 when untraced).
func (o *openSpan) id() int32 { return o.s.id }

// close ends and records the span.
func (o *openSpan) close() {
	if o.t == nil {
		return
	}
	o.s.end = time.Since(o.t.epoch)
	o.t.add(o.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.calls[s.name]++
	t.mu.Unlock()
}

// fewestCalls is the call count of the least-called span name recorded
// so far (math.MaxInt before any span).
func (t *tracer) fewestCalls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	fewest := math.MaxInt
	for _, n := range t.calls {
		fewest = min(fewest, n)
	}
	return fewest
}

// take returns the recorded spans and counts and empties the tracer.
func (t *tracer) take() ([]span, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, counts := t.spans, t.counts
	t.spans, t.calls, t.counts = nil, make(map[string]int), make(map[string]int64)
	return spans, counts
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; a child's part outside the parent's interval does not count).
func selfTimes(spans []span) map[int32]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int32][]iv)
	for i := range spans {
		if p := spans[i].parent; p != 0 {
			kids[p] = append(kids[p], iv{spans[i].start, spans[i].end})
		}
	}
	self := make(map[int32]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		cs := kids[s.id]
		slices.SortFunc(cs, func(a, b iv) int {
			switch {
			case a.lo < b.lo:
				return -1
			case a.lo > b.lo:
				return 1
			}
			return 0
		})
		covered := time.Duration(0)
		cur := s.start // covered up to here
		for _, c := range cs {
			lo, hi := max(c.lo, cur), min(c.hi, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// layerStats aggregates every span of one name.
type layerStats struct {
	calls int
	busy  time.Duration
	self  time.Duration
	durs  []time.Duration
}

// aggregate folds spans into per-name statistics. A span named decode
// under a span named sync is a re-run outside the sync's interval, so
// it does not reduce the sync's self time; install, the sync's self
// time minus its decode, is derived here for every sync.
func aggregate(spans []span, sync, decode, install string) map[string]*layerStats {
	self := selfTimes(spans)
	decodeOf := make(map[int32]time.Duration)
	for i := range spans {
		if spans[i].name == decode {
			decodeOf[spans[i].parent] += spans[i].dur()
		}
	}
	out := make(map[string]*layerStats)
	add := func(name string, dur, selfDur time.Duration) {
		ls := out[name]
		if ls == nil {
			ls = &layerStats{}
			out[name] = ls
		}
		ls.calls++
		ls.busy += dur
		ls.self += selfDur
		ls.durs = append(ls.durs, dur)
	}
	for i := range spans {
		s := &spans[i]
		add(s.name, s.dur(), self[s.id])
		if s.name == sync && install != "" {
			inst := max(self[s.id]-decodeOf[s.id], 0)
			add(install, inst, inst)
		}
	}
	return out
}
