package emu

import "autovac/internal/isa"

// SegmentInfo describes one mapped range of the emulator's address
// space for a given program, without constructing a CPU.
type SegmentInfo struct {
	Name     string
	Base     uint32
	Size     uint32
	ReadOnly bool
}

// Contains reports whether [addr, addr+n) lies inside the segment.
func (s SegmentInfo) Contains(addr, n uint32) bool {
	return addr >= s.Base && n <= s.Size && addr-s.Base <= s.Size-n
}

// LayoutInfo is the load-time memory layout of a program: where each
// data symbol lands and which address ranges are mapped. The static
// analysis layer uses it to decide, without running anything, whether
// a memory access would fault at replay time.
type LayoutInfo struct {
	// Symbols maps each data item name to its load address.
	Symbols map[string]uint32
	// Segments lists the mapped ranges (.rdata, .data, stack).
	Segments []SegmentInfo
}

// Mapped reports whether [addr, addr+n) is entirely inside one mapped
// segment — the same rule the memory subsystem enforces at run time.
func (l LayoutInfo) Mapped(addr, n uint32) bool {
	for _, s := range l.Segments {
		if s.Contains(addr, n) {
			return true
		}
	}
	return false
}

// Writable reports whether [addr, addr+n) is inside one writable
// mapped segment.
func (l LayoutInfo) Writable(addr, n uint32) bool {
	for _, s := range l.Segments {
		if s.Contains(addr, n) {
			return !s.ReadOnly
		}
	}
	return false
}

// Layout computes the load-time layout the emulator would produce for
// the program, by running the real loader against a scratch address
// space and adding the per-run stack, which sits above every loaded
// segment. It never executes instructions.
func Layout(p *isa.Program) LayoutInfo {
	m := &memory{}
	symbols := m.loadProgram(p)
	info := LayoutInfo{Symbols: symbols}
	for _, s := range m.segs {
		info.Segments = append(info.Segments, SegmentInfo{
			Name:     s.name,
			Base:     s.base,
			Size:     uint32(len(s.data)),
			ReadOnly: s.readOnly,
		})
	}
	info.Segments = append(info.Segments, SegmentInfo{
		Name: "stack",
		Base: StackTop - StackSize,
		Size: uint32(stackBytes),
	})
	return info
}
