// Package taint implements the data structures and policies of AUTOVAC's
// dynamic taint analysis (paper §III): taint label sets, the taint-source
// table that maps labels back to the system-resource API calls that
// introduced them, and (in analysis.go) the forward tainted-predicate scan
// and the backward root-cause classification used by determinism analysis
// (§IV-C).
package taint

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Source is a taint label: a small integer identifying one
// resource-related API call occurrence that introduced taint.
type Source uint32

// Set is an immutable set of taint labels, represented as a bitset.
// The zero value is the empty set and is ready to use. All operations
// return new sets; sets are safely shareable.
type Set struct {
	words []uint64
}

// Empty reports whether the set has no labels.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Has reports whether the set contains the label.
func (s Set) Has(src Source) bool {
	i := int(src / 64)
	if i >= len(s.words) {
		return false
	}
	return s.words[i]&(1<<(src%64)) != 0
}

// With returns a copy of the set with the label added.
func (s Set) With(src Source) Set {
	i := int(src / 64)
	words := make([]uint64, max(len(s.words), i+1))
	copy(words, s.words)
	words[i] |= 1 << (src % 64)
	return Set{words: words}
}

// Union returns the union of two sets. Either operand may be empty;
// unions with the empty set return the other operand without copying.
func (s Set) Union(o Set) Set {
	if s.Empty() {
		return o
	}
	if o.Empty() {
		return s
	}
	words := make([]uint64, max(len(s.words), len(o.words)))
	copy(words, s.words)
	for i, w := range o.words {
		words[i] |= w
	}
	return Set{words: words}
}

// Equal reports whether two sets contain the same labels.
func (s Set) Equal(o Set) bool {
	n := max(len(s.words), len(o.words))
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Contains reports whether s is a superset of o.
func (s Set) Contains(o Set) bool {
	for i, w := range o.words {
		var a uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if w&^a != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of labels in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Sources returns the labels in ascending order.
func (s Set) Sources() []Source {
	var out []Source
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, Source(i*64+b))
			w &^= 1 << b
		}
	}
	return out
}

// Of builds a set from labels.
func Of(srcs ...Source) Set {
	var s Set
	for _, src := range srcs {
		s = s.With(src)
	}
	return s
}

// String renders the set as {1,5,9}.
func (s Set) String() string {
	srcs := s.Sources()
	parts := make([]string, len(srcs))
	for i, src := range srcs {
		parts[i] = fmt.Sprintf("%d", src)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// SourceInfo records where a taint label came from: the API call that
// introduced it, its precise calling context, and the resource it touched.
// This is the information Phase-I logs for each tainted system-resource
// API (paper §III, "Output from Phase-I").
type SourceInfo struct {
	// Source is the label this record describes.
	Source Source
	// API is the Windows-style API name (e.g. "OpenMutexA").
	API string
	// CallerPC is the program counter of the call site.
	CallerPC int
	// Seq is the dynamic occurrence index of this API call in the run.
	Seq int
	// ResourceKind names the resource namespace ("mutex", "file", ...).
	ResourceKind string
	// Identifier is the concrete resource identifier observed.
	Identifier string
	// Op is the resource operation ("create", "open", ...).
	Op string
	// Success reports whether the operation succeeded.
	Success bool
	// Class is the API's determinism class ("none", "semantic",
	// "random") used by the root-cause classification (§IV-C).
	Class string
}

// Table allocates taint labels and remembers their provenance.
// The zero value is ready to use.
type Table struct {
	infos []SourceInfo
}

// Add allocates a fresh label for the given provenance and returns it.
func (t *Table) Add(info SourceInfo) Source {
	src := Source(len(t.infos))
	info.Source = src
	t.infos = append(t.infos, info)
	return src
}

// Reserve allocates a label whose provenance will be back-filled with
// Fill once the API call completes (the label must exist before the
// implementation runs so output writes can carry it).
func (t *Table) Reserve() Source {
	src := Source(len(t.infos))
	t.infos = append(t.infos, SourceInfo{Source: src})
	return src
}

// Fill back-fills a reserved label's provenance. The Source field of
// info is overwritten with src.
func (t *Table) Fill(src Source, info SourceInfo) {
	if int(src) < len(t.infos) {
		info.Source = src
		t.infos[src] = info
	}
}

// Info returns the provenance of a label.
func (t *Table) Info(src Source) (SourceInfo, bool) {
	if int(src) >= len(t.infos) {
		return SourceInfo{}, false
	}
	return t.infos[src], true
}

// Len returns the number of allocated labels.
func (t *Table) Len() int { return len(t.infos) }

// Reset forgets every label while keeping the backing storage, so a
// pooled execution can reuse the table without reallocating. Records
// previously handed out by All are unaffected (All copies).
func (t *Table) Reset() { t.infos = t.infos[:0] }

// Grow makes room for n more labels without reallocating.
func (t *Table) Grow(n int) { t.infos = slices.Grow(t.infos, n) }

// All returns every source record, ordered by label.
func (t *Table) All() []SourceInfo {
	return append([]SourceInfo(nil), t.infos...)
}

// Take returns every source record, ordered by label, without copying,
// and empties the table: the records become the caller's, and the
// table's next label is 0 again in new storage. An empty table returns
// nil and keeps its storage.
func (t *Table) Take() []SourceInfo {
	if len(t.infos) == 0 {
		return nil
	}
	out := t.infos
	t.infos = nil
	return out
}

// Lookup returns the labels whose provenance satisfies the predicate.
func (t *Table) Lookup(pred func(SourceInfo) bool) []Source {
	var out []Source
	for _, info := range t.infos {
		if pred(info) {
			out = append(out, info.Source)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
