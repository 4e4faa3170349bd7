package emu

import (
	"reflect"
	"testing"

	"autovac/internal/isa"
)

// minimalProgram builds a tiny program with one read-only datum and
// one writable buffer, enough for a full layout (stack, data, rodata,
// loader image).
func minimalProgram(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("layout-bounds")
	b.RData("ro", "const")
	b.Buf("rw", 32)
	b.Halt()
	return b.MustBuild()
}

// TestSegmentContainsWraparound pins the overflow behaviour of the
// range check the static layer trusts: [addr, addr+n) queries where
// addr+n wraps the 32-bit space must never report "inside". The
// implementation is deliberately subtraction-based (addr-base <=
// size-n after the guards) because the naive addr+n <= base+size
// comparison silently accepts wrapped ranges.
func TestSegmentContainsWraparound(t *testing.T) {
	// A segment butting against the top of the address space, and one
	// in the middle — both must reject wrapped and straddling ranges.
	high := SegmentInfo{Name: "high", Base: 0xFFFFF000, Size: 0x1000}
	mid := SegmentInfo{Name: "mid", Base: 0x00400000, Size: 0x200}

	tests := []struct {
		name string
		seg  SegmentInfo
		addr uint32
		n    uint32
		want bool
	}{
		{"full segment at top of space", high, 0xFFFFF000, 0x1000, true},
		{"last byte of the address space", high, 0xFFFFFFFF, 1, true},
		{"addr+n wraps past zero", high, 0xFFFFFF00, 0x200, false},
		{"addr+n wraps exactly to zero is still inside", high, 0xFFFFFF00, 0x100, true},
		{"huge n wraps back over the segment", high, 0xFFFFF000, 0xFFFFFFFF, false},
		{"n larger than the whole space", mid, 0x00400000, 0xFFFFFFFF, false},
		{"n equal to size from base", mid, 0x00400000, 0x200, true},
		{"n overruns by one", mid, 0x00400000, 0x201, false},
		{"addr below base with wrapping n", mid, 0xFFFFFFFF, 0x00400010, false},
		{"zero-length at base", mid, 0x00400000, 0, true},
		{"zero-length at end boundary", mid, 0x00400200, 0, true},
		{"zero-length past end", mid, 0x00400201, 0, false},
		{"addr just below base", mid, 0x003FFFFF, 1, false},
		{"last byte of mid segment", mid, 0x004001FF, 1, true},
		{"straddles the upper boundary", mid, 0x004001FF, 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.seg.Contains(tt.addr, tt.n); got != tt.want {
				t.Errorf("Contains(%#x, %#x) on [%#x,+%#x) = %v, want %v",
					tt.addr, tt.n, tt.seg.Base, tt.seg.Size, got, tt.want)
			}
		})
	}
}

// TestLayoutMappedWritableWraparound runs the same boundary queries
// through the layout-level entry points the verifier actually calls,
// over a real program layout (stack, data, rodata, loader image).
func TestLayoutMappedWritableWraparound(t *testing.T) {
	l := Layout(minimalProgram(t))
	var data, rodata *SegmentInfo
	for i := range l.Segments {
		switch {
		case l.Segments[i].Name == ".data":
			data = &l.Segments[i]
		case l.Segments[i].ReadOnly && rodata == nil:
			rodata = &l.Segments[i]
		}
	}
	if data == nil || rodata == nil {
		t.Fatalf("layout missing data or read-only segment: %+v", l.Segments)
	}

	if !l.Mapped(data.Base, data.Size) {
		t.Error("whole data segment not mapped")
	}
	if !l.Writable(data.Base, data.Size) {
		t.Error("data segment not writable")
	}
	if l.Writable(rodata.Base, 1) {
		t.Errorf("read-only segment %s reported writable", rodata.Name)
	}
	// Wrapping queries anchored inside a real segment must fail both
	// checks even though the wrapped tail lands in mapped space.
	last := data.Base + data.Size - 1
	if l.Mapped(last, 0xFFFFFFFF) {
		t.Error("wrapping range reported mapped")
	}
	if l.Writable(last, 0xFFFFFFFF) {
		t.Error("wrapping range reported writable")
	}
	// n chosen so addr+n overflows to an address below the segment.
	wrapN := uint32(0) - last + 0x10
	if l.Mapped(last, wrapN) {
		t.Error("range wrapping past zero reported mapped")
	}
}

// TestLayoutMatchesRuntimeMemory holds Layout, which adds the stack
// from its constants, to the address space a run maps.
func TestLayoutMatchesRuntimeMemory(t *testing.T) {
	prog := minimalProgram(t)
	d, err := decodedFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := newMemoryFrom(d)
	defer m.release()
	var run []SegmentInfo
	for _, s := range m.segs {
		run = append(run, SegmentInfo{Name: s.name, Base: s.base, Size: uint32(len(s.data)), ReadOnly: s.readOnly})
	}
	if got := Layout(prog).Segments; !reflect.DeepEqual(got, run) {
		t.Errorf("Layout segments %+v, run maps %+v", got, run)
	}
}
