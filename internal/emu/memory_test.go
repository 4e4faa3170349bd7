package emu

import (
	"strings"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/taint"
)

func testMemory() *memory {
	m := &memory{}
	m.mapSegment("rw", 0x1000, 64, false)
	m.mapSegment("ro", 0x2000, 16, true)
	return m
}

func TestMemoryWordRoundTrip(t *testing.T) {
	m := testMemory()
	tnt := taint.Of(3)
	if err := m.writeWord(0x1000, 0xDEADBEEF, tnt); err != nil {
		t.Fatal(err)
	}
	v, got, err := m.readWord(0x1000)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("readWord = %#x, %v", v, err)
	}
	if !got.Has(3) {
		t.Error("taint lost")
	}
	// Little-endian layout.
	b, _, _ := m.readByte(0x1000)
	if b != 0xEF {
		t.Errorf("low byte = %#x", b)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := testMemory()
	// Unmapped address.
	if _, _, err := m.readWord(0x5000); err == nil {
		t.Error("unmapped read succeeded")
	}
	// Word crossing the segment end.
	if _, _, err := m.readWord(0x1000 + 62); err == nil {
		t.Error("cross-boundary read succeeded")
	}
	if err := m.writeWord(0x1000+62, 1, taint.Set{}); err == nil {
		t.Error("cross-boundary write succeeded")
	}
	// Byte at the last valid offset works.
	if _, _, err := m.readByte(0x1000 + 63); err != nil {
		t.Errorf("last byte read: %v", err)
	}
}

func TestMemoryReadOnlyEnforced(t *testing.T) {
	m := testMemory()
	for _, f := range []func() error{
		func() error { return m.writeByte(0x2000, 1, taint.Set{}) },
		func() error { return m.writeWord(0x2000, 1, taint.Set{}) },
		func() error { return m.writeBytes(0x2000, []byte{1, 2}, taint.Set{}) },
	} {
		if err := f(); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Errorf("read-only write: %v", err)
		}
	}
	if !m.inReadOnly(0x2000) || m.inReadOnly(0x1000) {
		t.Error("inReadOnly wrong")
	}
}

func TestMemoryCString(t *testing.T) {
	m := testMemory()
	if err := m.writeBytes(0x1000, append([]byte("marker"), 0), taint.Of(7)); err != nil {
		t.Fatal(err)
	}
	s, tnt, err := m.readCString(0x1000)
	if err != nil || s != "marker" {
		t.Fatalf("readCString = %q, %v", s, err)
	}
	if !tnt.Has(7) {
		t.Error("string taint lost")
	}
	// Unterminated string runs into the segment boundary and errors.
	for i := 0; i < 64; i++ {
		_ = m.writeByte(uint32(0x1000+i), 'A', taint.Set{})
	}
	if _, _, err := m.readCString(0x1000); err == nil {
		t.Error("unterminated string read succeeded")
	}
}

func TestMemoryByteTaints(t *testing.T) {
	m := testMemory()
	_ = m.writeByte(0x1001, 'x', taint.Of(1))
	_ = m.writeByte(0x1002, 'y', taint.Of(2))
	taints, err := m.byteTaints(0x1000, 4)
	if err != nil || len(taints) != 4 {
		t.Fatalf("byteTaints: %v, %v", taints, err)
	}
	if !taints[0].Empty() || !taints[1].Has(1) || !taints[2].Has(2) || !taints[3].Empty() {
		t.Errorf("per-byte taints wrong: %v", taints)
	}
	if _, err := m.byteTaints(0x1000+62, 4); err == nil {
		t.Error("cross-boundary byteTaints succeeded")
	}
	if got, err := m.byteTaints(0x1000, 0); got != nil || err != nil {
		t.Error("zero-length byteTaints")
	}
}

func TestFindCacheInvalidatedByMapSegment(t *testing.T) {
	m := &memory{}
	a := m.mapSegment("a", 0x1000, 64, false)
	// Warm the last-hit cache on "a".
	if s, err := m.find(0x1010); err != nil || s != a {
		t.Fatalf("find(0x1010) = %v, %v", s, err)
	}
	// Mapping segments below and above must invalidate the cache and
	// keep the base-sorted order binary search depends on.
	lo := m.mapSegment("lo", 0x100, 16, false)
	hi := m.mapSegment("hi", 0x3000, 16, true)
	for _, tc := range []struct {
		addr uint32
		want *segment
	}{
		{0x100, lo}, {0x10F, lo},
		{0x1000, a}, {0x103F, a},
		{0x3000, hi}, {0x300F, hi},
	} {
		s, err := m.find(tc.addr)
		if err != nil || s != tc.want {
			t.Errorf("find(%#x) = %v, %v; want segment %q", tc.addr, s, err, tc.want.name)
		}
	}
	// Gap and out-of-range addresses fault regardless of what the cache
	// last held.
	for _, addr := range []uint32{0x0FF, 0x110, 0x800, 0x1040, 0x2FFF, 0x3010} {
		if _, err := m.find(addr); err == nil {
			t.Errorf("find(%#x) succeeded in a gap", addr)
		}
	}
}

func TestFindRangeCrossSegmentFaults(t *testing.T) {
	m := &memory{}
	m.mapSegment("a", 0x1000, 64, false)
	m.mapSegment("b", 0x1040, 64, false) // directly adjacent
	// Ranges wholly inside one segment work, including at the seam.
	if _, err := m.findRange(0x103C, 4); err != nil {
		t.Errorf("in-segment range: %v", err)
	}
	if _, err := m.findRange(0x1040, 4); err != nil {
		t.Errorf("range at next segment start: %v", err)
	}
	// A range straddling the boundary faults even though every byte of
	// it is mapped — segments are distinct objects.
	if _, err := m.findRange(0x103E, 4); err == nil || !strings.Contains(err.Error(), "crosses segment") {
		t.Errorf("straddling findRange: %v", err)
	}
	if _, _, err := m.readWord(0x103E); err == nil {
		t.Error("straddling readWord succeeded")
	}
	if err := m.writeWord(0x103E, 1, taint.Set{}); err == nil {
		t.Error("straddling writeWord succeeded")
	}
	if _, _, err := m.readBytes(0x1030, 32); err == nil {
		t.Error("straddling readBytes succeeded")
	}
}

func TestResetClearsShadowNoTaintLeak(t *testing.T) {
	m := &memory{}
	m.mapSegment("rw", 0x1000, 4*shadowPageSize, false)
	s := m.segs[0]
	// Run N: taint bytes on two distinct shadow pages.
	if err := m.writeByte(0x1000+5, 0xAA, taint.Of(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.writeByte(0x1000+2*shadowPageSize+7, 0xBB, taint.Of(2)); err != nil {
		t.Fatal(err)
	}
	if !s.anyTaint {
		t.Fatal("anyTaint not set by tainted write")
	}
	if s.shadow[0] == nil || s.shadow[2] == nil {
		t.Fatal("touched shadow pages not allocated")
	}
	if s.shadow[1] != nil || s.shadow[3] != nil {
		t.Error("untouched shadow pages allocated eagerly")
	}

	// Run N+1 starts from reset: neither data nor taint may leak.
	m.reset()
	if s.anyTaint {
		t.Error("anyTaint survived reset")
	}
	b, tnt, err := m.readByte(0x1000 + 5)
	if err != nil || b != 0 || !tnt.Empty() {
		t.Errorf("after reset: byte=%#x taint=%v err=%v", b, tnt, err)
	}
	taints, err := m.byteTaints(0x1000, uint32(len(s.data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range taints {
		if !set.Empty() {
			t.Fatalf("taint leaked across reset at offset %d: %v", i, set)
		}
	}
	// Pages are retained for reuse (cleared, not freed).
	if s.shadow[0] == nil || s.shadow[2] == nil {
		t.Error("reset freed shadow pages instead of clearing them")
	}
	// Re-tainting after reset works on the recycled pages.
	if err := m.writeByte(0x1000+5, 0xCC, taint.Of(3)); err != nil {
		t.Fatal(err)
	}
	if _, tnt, _ := m.readByte(0x1000 + 5); !tnt.Has(3) || tnt.Has(1) {
		t.Errorf("recycled page taint = %v", tnt)
	}
}

func TestReadOnlySegmentsNeverAllocateShadows(t *testing.T) {
	b := isa.NewBuilder("ro-shadow")
	b.RData("k", "constant")
	b.Buf("buf", 32)
	b.Halt()
	m := &memory{}
	symbols := m.loadProgram(b.MustBuild())
	for _, s := range m.segs {
		if s.shadow != nil || s.anyTaint {
			t.Errorf("segment %q has eager shadow state after load", s.name)
		}
	}
	// Reads keep .rdata shadow-free, and tainted writes to it fault
	// before reaching the taint store.
	if _, _, err := m.readCString(symbols["k"]); err != nil {
		t.Fatal(err)
	}
	if err := m.writeByte(symbols["k"], 'x', taint.Of(1)); err == nil {
		t.Error("write to .rdata succeeded")
	}
	ro, err := m.find(symbols["k"])
	if err != nil {
		t.Fatal(err)
	}
	if ro.shadow != nil || ro.anyTaint {
		t.Error(".rdata allocated a taint shadow")
	}
}

func TestLoadProgramLayout(t *testing.T) {
	b := isa.NewBuilder("layout")
	b.RData("ro1", "const-one")
	b.RData("ro2", "const-two")
	b.Buf("rw1", 32)
	b.Halt()
	prog := b.MustBuild()

	m := &memory{}
	symbols := m.loadProgram(prog)
	// Read-only items land in the rdata window, writable below DataBase.
	for _, name := range []string{"ro1", "ro2"} {
		addr := symbols[name]
		if addr < RDataBase || addr >= DataBase {
			t.Errorf("%s at %#x outside rdata window", name, addr)
		}
		if !m.inReadOnly(addr) {
			t.Errorf("%s not read-only", name)
		}
	}
	if addr := symbols["rw1"]; addr < DataBase {
		t.Errorf("rw1 at %#x inside rdata window", addr)
	}
	// Contents loaded.
	s, _, err := m.readCString(symbols["ro1"])
	if err != nil || s != "const-one" {
		t.Errorf("ro1 = %q, %v", s, err)
	}
	// Guard padding separates items: the byte right after a string's NUL
	// belongs to the same segment but is zero.
	if bt, _, err := m.readByte(symbols["ro1"] + uint32(len("const-one")) + 1); err != nil || bt != 0 {
		t.Errorf("guard byte = %#x, %v", bt, err)
	}
	// Stack mapped.
	if err := m.writeWord(StackTop-4, 1, taint.Set{}); err != nil {
		t.Errorf("stack write: %v", err)
	}
}

func TestDeterministicLayoutAcrossLoads(t *testing.T) {
	b := isa.NewBuilder("layout2")
	b.RData("a", "x")
	b.Buf("b", 8)
	b.Halt()
	prog := b.MustBuild()
	m1, m2 := &memory{}, &memory{}
	s1 := m1.loadProgram(prog)
	s2 := m2.loadProgram(prog)
	for name := range s1 {
		if s1[name] != s2[name] {
			t.Errorf("%s at %#x vs %#x across loads", name, s1[name], s2[name])
		}
	}
}

func TestReleasedShadowPagesCarryNoTaint(t *testing.T) {
	m := &memory{}
	m.mapSegment("rw", 0x1000, 2*shadowPageSize, false)
	if err := m.writeWord(0x1000+8, 0xAA, taint.Of(4)); err != nil {
		t.Fatal(err)
	}
	pg := m.segs[0].shadow[0]
	m.release()
	// The page went back to the pool cleared.
	for i, set := range pg {
		if !set.Empty() {
			t.Fatalf("released page still tainted at offset %d: %v", i, set)
		}
	}
	// A page the next run borrows starts clean around its own write.
	next := &memory{}
	next.mapSegment("rw", 0x1000, 2*shadowPageSize, false)
	if err := next.writeByte(0x1000, 0xBB, taint.Of(5)); err != nil {
		t.Fatal(err)
	}
	if _, tnt, _ := next.readWord(0x1000 + 8); !tnt.Empty() {
		t.Errorf("recycled page carried taint %v into the next run", tnt)
	}
	// Once warm, borrowing and returning a page allocates nothing.
	s, tnt := next.segs[0], taint.Of(6)
	if n := testing.AllocsPerRun(100, func() {
		s.setTaint(3, tnt)
		s.releaseShadow()
	}); n != 0 {
		t.Errorf("borrowing a shadow page allocated %.0f objects", n)
	}
}
