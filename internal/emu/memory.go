// Package emu executes isa programs against a winenv environment with
// instruction-level observation: per-byte taint propagation, tainted
// predicate detection, API-call logging with calling context, optional
// instruction-step recording for offline backward analysis, and API
// result mutation for impact analysis. It is this reproduction's
// substitute for the paper's DynamoRIO-based instrumentation (§VI).
package emu

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"autovac/internal/isa"
	"autovac/internal/taint"
)

// Memory layout constants. Programs are loaded with read-only data at
// RDataBase, writable data at DataBase, and a descending stack.
const (
	// RDataBase is the load address of read-only data (.rdata).
	RDataBase uint32 = 0x00400000
	// DataBase is the load address of writable data (.data).
	DataBase uint32 = 0x00500000
	// StackTop is the initial ESP; the stack grows down.
	StackTop uint32 = 0x7FFE0000
	// StackSize is the reserved stack size in bytes.
	StackSize uint32 = 0x00010000
)

// stackBytes is the mapped size of the stack segment at
// StackTop-StackSize: the reserved stack plus 16 bytes above StackTop.
const stackBytes = int(StackSize) + 16

// ErrBadAccess is wrapped by memory faults.
var ErrBadAccess = fmt.Errorf("emu: bad memory access")

// Taint shadows are kept in sparse pages allocated on first tainted
// write. A fully untainted run (the common case: benign programs, slice
// replays, most samples before their first resource API) never touches
// a shadow, and an untainted 64 KB stack costs nothing instead of a
// 1.5 MB pointer-ful array the GC has to scan.
const (
	shadowPageBits = 10 // 1 KiB of bytes per shadow page
	shadowPageSize = 1 << shadowPageBits
	shadowPageMask = shadowPageSize - 1
)

// segment is one mapped memory range with a sparse copy-on-write taint
// shadow.
type segment struct {
	base     uint32
	data     []byte
	readOnly bool
	name     string

	// anyTaint is the segment-level fast path: while false, every byte
	// of the segment is untainted and loads skip shadow lookups
	// entirely.
	anyTaint bool
	// shadow holds lazily allocated per-page taint arrays; a nil page
	// is all-untainted. Read-only segments never allocate shadows
	// (writes to them fault before reaching the taint store).
	shadow [][]taint.Set
	// taintLo and taintHi bound the offsets tainted since the last
	// reset (meaningful while anyTaint), so a reset clears that range
	// of the shadow pages instead of whole 24 KiB pages.
	taintLo, taintHi uint32
	// dirtyLo and dirtyHi bound the offsets written since the last
	// reset (empty while dirtyLo >= dirtyHi), so a reset restores or
	// clears that range instead of the whole segment.
	dirtyLo, dirtyHi uint32

	// pristine is the loader-initialised content, shared across runs
	// for reset; nil means all-zero (the stack).
	pristine []byte
	// pooled marks a data buffer borrowed from stackPool, returned by
	// release.
	pooled bool
}

// markDirty widens the written range to cover [off, off+n).
func (s *segment) markDirty(off, n uint32) {
	if s.dirtyLo >= s.dirtyHi {
		s.dirtyLo, s.dirtyHi = off, off+n
		return
	}
	s.dirtyLo = min(s.dirtyLo, off)
	s.dirtyHi = max(s.dirtyHi, off+n)
}

// restore returns the written range to its loader content (zero for
// the stack) and marks the segment clean.
func (s *segment) restore() {
	if s.dirtyLo < s.dirtyHi {
		if s.pristine != nil {
			copy(s.data[s.dirtyLo:s.dirtyHi], s.pristine[s.dirtyLo:s.dirtyHi])
		} else {
			clear(s.data[s.dirtyLo:s.dirtyHi])
		}
	}
	s.dirtyLo, s.dirtyHi = 0, 0
}

func (s *segment) contains(addr uint32) bool {
	return addr >= s.base && addr < s.base+uint32(len(s.data))
}

// taintAt returns the taint of one byte.
func (s *segment) taintAt(off uint32) taint.Set {
	if !s.anyTaint {
		return taint.Set{}
	}
	pg := s.shadow[off>>shadowPageBits]
	if pg == nil {
		return taint.Set{}
	}
	return pg[off&shadowPageMask]
}

// setTaint stores the taint of one byte, allocating the shadow page on
// the first tainted write. Storing the empty set is free while the
// segment (or the page) has never been tainted.
func (s *segment) setTaint(off uint32, t taint.Set) {
	if t.Empty() {
		if !s.anyTaint {
			return
		}
		pg := s.shadow[off>>shadowPageBits]
		if pg == nil {
			return
		}
		pg[off&shadowPageMask] = taint.Set{}
		return
	}
	if s.shadow == nil {
		s.shadow = make([][]taint.Set, (len(s.data)+shadowPageSize-1)>>shadowPageBits)
	}
	if !s.anyTaint {
		s.anyTaint = true
		s.taintLo, s.taintHi = off, off+1
	} else {
		s.taintLo = min(s.taintLo, off)
		s.taintHi = max(s.taintHi, off+1)
	}
	i := off >> shadowPageBits
	pg := s.shadow[i]
	if pg == nil {
		pg = shadowPool.Get().(*shadowPage)[:]
		s.shadow[i] = pg
	}
	pg[off&shadowPageMask] = t
}

// resetShadow clears the tainted range of the allocated shadow pages,
// keeping the pages for reuse so the next run of a pooled execution
// pays no allocation. Bytes outside the range were never tainted, so
// the pages come out all clear.
func (s *segment) resetShadow() {
	if !s.anyTaint {
		return
	}
	for p := s.taintLo >> shadowPageBits; p <= (s.taintHi-1)>>shadowPageBits; p++ {
		pg := s.shadow[p]
		if pg == nil {
			continue
		}
		start := p << shadowPageBits
		lo := max(s.taintLo, start) - start
		hi := min(s.taintHi, start+shadowPageSize) - start
		clear(pg[lo:hi])
	}
	s.anyTaint = false
}

// releaseShadow clears the segment's shadow pages and returns them to
// shadowPool.
func (s *segment) releaseShadow() {
	s.resetShadow()
	for i, pg := range s.shadow {
		if pg != nil {
			shadowPool.Put((*shadowPage)(pg))
			s.shadow[i] = nil
		}
	}
}

// stackPool recycles stack-segment buffers across executions. With
// lazy shadows the 64 KB stack array is the dominant per-run
// allocation; pooling it makes repeated Phase-II replays alloc-free.
var stackPool = sync.Pool{
	New: func() any {
		b := make([]byte, stackBytes)
		return &b
	},
}

// shadowPage is one page of per-byte taint.
type shadowPage [shadowPageSize]taint.Set

// shadowPool recycles shadow pages across executions, so a one-shot
// run that taints memory borrows its 24 KB pointer-ful pages instead
// of allocating them. Pages are cleared before they go back.
var shadowPool = sync.Pool{
	New: func() any { return new(shadowPage) },
}

// memory is a small segmented address space. Segments are kept sorted
// by base; find answers from a last-hit cache first and falls back to
// binary search (the linear scan it replaces showed up in profiles at
// one lookup per executed memory operand).
type memory struct {
	segs []*segment
	last *segment
}

// mapSegment adds a mapping. Segments must not overlap; the loader
// guarantees that by construction.
func (m *memory) mapSegment(name string, base uint32, size int, readOnly bool) *segment {
	s := &segment{
		base:     base,
		data:     make([]byte, size),
		readOnly: readOnly,
		name:     name,
	}
	m.insert(s)
	return s
}

// insert places a segment in base order and invalidates the lookup
// cache.
func (m *memory) insert(s *segment) {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].base > s.base })
	m.segs = append(m.segs, nil)
	copy(m.segs[i+1:], m.segs[i:])
	m.segs[i] = s
	m.last = nil
}

// find locates the segment containing addr.
func (m *memory) find(addr uint32) (*segment, error) {
	if s := m.last; s != nil && s.contains(addr) {
		return s, nil
	}
	lo, hi := 0, len(m.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		s := m.segs[mid]
		if addr >= s.base+uint32(len(s.data)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(m.segs) && m.segs[lo].contains(addr) {
		m.last = m.segs[lo]
		return m.segs[lo], nil
	}
	return nil, fmt.Errorf("%w: address %#x unmapped", ErrBadAccess, addr)
}

// findRange locates the segment containing [addr, addr+n).
func (m *memory) findRange(addr, n uint32) (*segment, error) {
	s, err := m.find(addr)
	if err != nil {
		return nil, err
	}
	if n > 0 && !s.contains(addr+n-1) {
		return nil, fmt.Errorf("%w: range %#x+%d crosses segment %q", ErrBadAccess, addr, n, s.name)
	}
	return s, nil
}

// readByte reads one byte with its taint.
func (m *memory) readByte(addr uint32) (byte, taint.Set, error) {
	s, err := m.find(addr)
	if err != nil {
		return 0, taint.Set{}, err
	}
	off := addr - s.base
	if !s.anyTaint {
		return s.data[off], taint.Set{}, nil
	}
	return s.data[off], s.taintAt(off), nil
}

// writeByte writes one byte with taint, enforcing read-only segments.
func (m *memory) writeByte(addr uint32, v byte, t taint.Set) error {
	s, err := m.find(addr)
	if err != nil {
		return err
	}
	if s.readOnly {
		return fmt.Errorf("%w: write to read-only segment %q at %#x", ErrBadAccess, s.name, addr)
	}
	off := addr - s.base
	s.data[off] = v
	s.markDirty(off, 1)
	s.setTaint(off, t)
	return nil
}

// readWord reads a 32-bit little-endian word with combined taint.
func (m *memory) readWord(addr uint32) (uint32, taint.Set, error) {
	s, err := m.findRange(addr, 4)
	if err != nil {
		return 0, taint.Set{}, err
	}
	off := addr - s.base
	v := uint32(s.data[off]) | uint32(s.data[off+1])<<8 |
		uint32(s.data[off+2])<<16 | uint32(s.data[off+3])<<24
	if !s.anyTaint {
		return v, taint.Set{}, nil
	}
	t := s.taintAt(off).Union(s.taintAt(off + 1)).Union(s.taintAt(off + 2)).Union(s.taintAt(off + 3))
	return v, t, nil
}

// writeWord writes a 32-bit little-endian word with uniform taint.
func (m *memory) writeWord(addr uint32, v uint32, t taint.Set) error {
	s, err := m.findRange(addr, 4)
	if err != nil {
		return err
	}
	if s.readOnly {
		return fmt.Errorf("%w: write to read-only segment %q at %#x", ErrBadAccess, s.name, addr)
	}
	off := addr - s.base
	s.data[off] = byte(v)
	s.data[off+1] = byte(v >> 8)
	s.data[off+2] = byte(v >> 16)
	s.data[off+3] = byte(v >> 24)
	s.markDirty(off, 4)
	if t.Empty() && !s.anyTaint {
		return nil
	}
	for i := uint32(0); i < 4; i++ {
		s.setTaint(off+i, t)
	}
	return nil
}

// readBytes reads n bytes with combined taint.
func (m *memory) readBytes(addr, n uint32) ([]byte, taint.Set, error) {
	if n == 0 {
		return nil, taint.Set{}, nil
	}
	s, err := m.findRange(addr, n)
	if err != nil {
		return nil, taint.Set{}, err
	}
	off := addr - s.base
	out := append([]byte(nil), s.data[off:off+n]...)
	var t taint.Set
	if s.anyTaint {
		for i := uint32(0); i < n; i++ {
			t = t.Union(s.taintAt(off + i))
		}
	}
	return out, t, nil
}

// writeBytes writes bytes with uniform taint.
func (m *memory) writeBytes(addr uint32, b []byte, t taint.Set) error {
	if len(b) == 0 {
		return nil
	}
	s, err := m.findRange(addr, uint32(len(b)))
	if err != nil {
		return err
	}
	if s.readOnly {
		return fmt.Errorf("%w: write to read-only segment %q at %#x", ErrBadAccess, s.name, addr)
	}
	off := addr - s.base
	copy(s.data[off:], b)
	s.markDirty(off, uint32(len(b)))
	if t.Empty() && !s.anyTaint {
		return nil
	}
	for i := range b {
		s.setTaint(off+uint32(i), t)
	}
	return nil
}

// maxCString is the longest string readCString accepts; a longer one
// is an unterminated-string fault.
const maxCString = 1 << 16

// readCString reads a NUL-terminated string with combined taint. The
// common case — the NUL lies inside the string's segment — takes one
// segment lookup, one IndexByte and one allocation; a string that runs
// off its segment goes through readCStringBytewise, so faults and the
// length limit are decided exactly as byte-at-a-time reads decide them.
func (m *memory) readCString(addr uint32) (string, taint.Set, error) {
	s, err := m.find(addr)
	if err != nil {
		return "", taint.Set{}, err
	}
	off := addr - s.base
	rest := s.data[off:]
	n := bytes.IndexByte(rest[:min(len(rest), maxCString+1)], 0)
	if n < 0 {
		if len(rest) > maxCString {
			return "", taint.Set{}, fmt.Errorf("%w: unterminated string at %#x", ErrBadAccess, addr)
		}
		return m.readCStringBytewise(addr)
	}
	var t taint.Set
	if s.anyTaint {
		for i := off; i < off+uint32(n); i++ {
			t = t.Union(s.taintAt(i))
		}
	}
	return string(rest[:n]), t, nil
}

// readCStringBytewise is readCString one byte (and one segment lookup)
// at a time: the path for strings that cross a segment boundary.
func (m *memory) readCStringBytewise(addr uint32) (string, taint.Set, error) {
	var out []byte
	var t taint.Set
	for a := addr; ; a++ {
		b, bt, err := m.readByte(a)
		if err != nil {
			return "", taint.Set{}, err
		}
		if b == 0 {
			return string(out), t, nil
		}
		out = append(out, b)
		t = t.Union(bt)
		if len(out) > maxCString {
			return "", taint.Set{}, fmt.Errorf("%w: unterminated string at %#x", ErrBadAccess, addr)
		}
	}
}

// untaintedBytes backs the per-byte provenance of untainted strings up
// to its length: every element is nil, and it is never written.
var untaintedBytes = make([][]taint.Source, 256)

// byteSources returns the per-byte taint labels of [addr, addr+n) — the
// identifier provenance the determinism classification reads — or nil
// when n is 0 or the range is not inside one segment. An untainted
// range shares untaintedBytes, capped so that an append copies;
// callers must not write the elements.
func (m *memory) byteSources(addr, n uint32) [][]taint.Source {
	if n == 0 {
		return nil
	}
	s, err := m.findRange(addr, n)
	if err != nil {
		return nil
	}
	off := addr - s.base
	var out [][]taint.Source
	if s.anyTaint {
		for i := uint32(0); i < n; i++ {
			if t := s.taintAt(off + i); !t.Empty() {
				if out == nil {
					out = make([][]taint.Source, n)
				}
				out[i] = t.Sources()
			}
		}
	}
	if out == nil {
		if int(n) <= len(untaintedBytes) {
			return untaintedBytes[:n:n]
		}
		out = make([][]taint.Source, n)
	}
	return out
}

// inReadOnly reports whether addr lies in a read-only segment.
func (m *memory) inReadOnly(addr uint32) bool {
	s, err := m.find(addr)
	return err == nil && s.readOnly
}

// reset restores every writable segment to its loader state — pristine
// data, no taint — keeping all buffers (and any allocated shadow pages)
// for the next run. Only the range written since the last reset is
// restored. Read-only segments are skipped: writes to them fault, so
// they cannot have changed.
func (m *memory) reset() {
	for _, s := range m.segs {
		if s.readOnly {
			continue
		}
		s.restore()
		s.resetShadow()
	}
	m.last = nil
}

// release returns pooled buffers: the stack, with its written range
// cleared so the pool holds only zeroed buffers, and every shadow
// page. The memory must not be used afterwards.
func (m *memory) release() {
	for _, s := range m.segs {
		if s.pooled {
			s.restore()
			buf := s.data
			s.data = nil
			s.pooled = false
			stackPool.Put(&buf)
		}
		s.releaseShadow()
	}
	m.segs = nil
	m.last = nil
}

// mapStack maps the stack segment from the buffer pool. Pooled buffers
// are zero: release clears what a run wrote before returning one.
func (m *memory) mapStack() {
	bp := stackPool.Get().(*[]byte)
	s := &segment{
		base:   StackTop - StackSize,
		data:   *bp,
		name:   "stack",
		pooled: true,
	}
	m.insert(s)
}

// loadProgram maps a program's data items and the loader image and
// returns the symbol table. It maps no stack: a run borrows one from
// stackPool (newMemoryFrom), and Layout reports its fixed bounds.
func (m *memory) loadProgram(p *isa.Program) map[string]uint32 {
	symbols := make(map[string]uint32)
	// Two bump allocators: one per segment class.
	roNext, rwNext := RDataBase, DataBase
	var roItems, rwItems []isa.DataItem
	for _, d := range p.Data {
		if d.ReadOnly {
			roItems = append(roItems, d)
		} else {
			rwItems = append(rwItems, d)
		}
	}
	place := func(items []isa.DataItem, next *uint32, ro bool, segName string) {
		if len(items) == 0 {
			return
		}
		total := 0
		for _, d := range items {
			total += len(d.Data) + 16 // guard padding between items
		}
		seg := m.mapSegment(segName, *next, total, ro)
		off := uint32(0)
		for _, d := range items {
			symbols[d.Name] = seg.base + off
			copy(seg.data[off:], d.Data)
			off += uint32(len(d.Data)) + 16
		}
		if !ro {
			seg.pristine = append([]byte(nil), seg.data...)
		}
		*next += uint32(total)
	}
	place(roItems, &roNext, true, ".rdata")
	place(rwItems, &rwNext, false, ".data")
	m.mapLoader()
	return symbols
}

// newMemoryFrom builds an address space from a program's predecoded
// load images: the read-only image is shared (writes to it fault before
// touching data), the writable image is copied, and the stack comes
// from the buffer pool.
func newMemoryFrom(d *decoded) *memory {
	m := &memory{}
	for _, img := range d.segs {
		s := &segment{
			base:     img.base,
			readOnly: img.readOnly,
			name:     img.name,
		}
		if img.readOnly {
			s.data = img.image
		} else {
			s.data = append([]byte(nil), img.image...)
			s.pristine = img.image
		}
		m.insert(s)
	}
	m.mapStack()
	return m
}
