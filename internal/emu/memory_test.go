package emu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/taint"
	"autovac/internal/trace"
	"autovac/internal/winenv"
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
	srcs := m.byteSources(0x1000, 4)
	if len(srcs) != 4 {
		t.Fatalf("byteSources: %v", srcs)
	}
	if srcs[0] != nil || !slices.Equal(srcs[1], []taint.Source{1}) ||
		!slices.Equal(srcs[2], []taint.Source{2}) || srcs[3] != nil {
		t.Errorf("per-byte sources wrong: %v", srcs)
	}
	if got := m.byteSources(0x1000+62, 4); got != nil {
		t.Error("cross-boundary byteSources succeeded")
	}
	if got := m.byteSources(0x1000, 0); got != nil {
		t.Error("zero-length byteSources")
	}
	// An untainted range shares the all-nil backing, capped so an
	// append cannot write into it.
	clean := m.byteSources(0x1010, 3)
	if len(clean) != 3 || cap(clean) != 3 || clean[0] != nil || clean[2] != nil {
		t.Errorf("untainted byteSources = %v (cap %d)", clean, cap(clean))
	}
	grown := append(clean, []taint.Source{9})
	if &grown[0] == &untaintedBytes[0] || untaintedBytes[3] != nil {
		t.Error("append to an untainted byteSources wrote into the shared backing")
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
	for p, pg := range s.shadow {
		for i, set := range pg {
			if !set.Empty() {
				t.Fatalf("taint leaked across reset on page %d at offset %d: %v", p, i, set)
			}
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
	// The loader maps no stack; the runtime address space does.
	if err := m.writeWord(StackTop-4, 1, taint.Set{}); err == nil {
		t.Error("loader mapped a stack")
	}
	d, err := decodedFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	rt := newMemoryFrom(d)
	defer rt.release()
	if err := rt.writeWord(StackTop-4, 1, taint.Set{}); err != nil {
		t.Errorf("stack write: %v", err)
	}
	if err := rt.writeWord(StackTop-StackSize, 1, taint.Set{}); err != nil {
		t.Errorf("stack bottom write: %v", err)
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

// TestReadCStringMatchesBytewise checks readCString's one-lookup fast
// path against the byte-at-a-time loop it falls back to: same string,
// same taint union, same fault.
func TestReadCStringMatchesBytewise(t *testing.T) {
	const big = maxCString + 8
	fill := func(m *memory, addr uint32, n int, b byte) {
		for i := 0; i < n; i++ {
			if err := m.writeByte(addr+uint32(i), b, taint.Set{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		setup   func(m *memory) uint32
		wantErr string
	}{
		{"nul is the segment's last byte", func(m *memory) uint32 {
			fill(m, 0x1000, 63, 'a') // offset 63 stays 0
			return 0x1000
		}, ""},
		{"runs off its segment into unmapped memory", func(m *memory) uint32 {
			fill(m, 0x1000, 64, 'a')
			return 0x1010
		}, "unmapped"},
		{"runs off its segment into the next one", func(m *memory) uint32 {
			m.mapSegment("next", 0x1040, 16, false)
			fill(m, 0x1000, 64, 'a')
			fill(m, 0x1040, 4, 'b')
			return 0x1020
		}, ""},
		{"65536 bytes accepted", func(m *memory) uint32 {
			m.mapSegment("big", 0x100000, big, false)
			fill(m, 0x100000, maxCString, 'c')
			return 0x100000
		}, ""},
		{"65537 bytes rejected", func(m *memory) uint32 {
			m.mapSegment("big", 0x100000, big, false)
			fill(m, 0x100000, maxCString+1, 'c')
			return 0x100000
		}, "unterminated"},
		{"65536 bytes then the segment end", func(m *memory) uint32 {
			m.mapSegment("big", 0x100000, maxCString, false)
			fill(m, 0x100000, maxCString, 'c')
			return 0x100000
		}, "unmapped"},
		{"partly tainted", func(m *memory) uint32 {
			_ = m.writeBytes(0x1000, []byte("mutex-"), taint.Of(2))
			_ = m.writeBytes(0x1006, []byte("name"), taint.Set{})
			_ = m.writeByte(0x1008, 'm', taint.Of(5, 9))
			return 0x1000
		}, ""},
		{"unmapped start", func(m *memory) uint32 { return 0x9000 }, "unmapped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMemory()
			addr := tc.setup(m)
			s1, t1, err1 := m.readCString(addr)
			s2, t2, err2 := m.readCStringBytewise(addr)
			if s1 != s2 || !t1.Equal(t2) || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("fast (%d bytes, %v, %v) != bytewise (%d bytes, %v, %v)",
					len(s1), t1, err1, len(s2), t2, err2)
			}
			if tc.wantErr == "" && err1 != nil || tc.wantErr != "" && (err1 == nil || !strings.Contains(err1.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want %q", err1, tc.wantErr)
			}
		})
	}
}

// dirtyProbe writes both ends of the stack, scattered .data bytes, and
// tainted bytes at both edges of one stack shadow page. It first folds
// what a previous run may have left at those places into a branch and
// a predicate, so stale data or taint changes the trace.
func dirtyProbe() *isa.Program {
	const page = 8
	stackBase := StackTop - StackSize
	lowStack := isa.MemAbs(stackBase)
	pageLo := isa.MemAbs(stackBase + page*shadowPageSize)
	pageMid := isa.MemAbs(stackBase + page*shadowPageSize + shadowPageSize/2)
	pageHi := isa.MemAbs(stackBase + (page+1)*shadowPageSize - 4)
	at := func(sym string, off uint32) isa.Operand {
		return isa.Operand{Kind: isa.KindMem, Sym: sym, Imm: off}
	}
	b := isa.NewBuilder("dirty-probe")
	b.RData("marker", "!DirtyProbe")
	b.Buf("head", 8)
	b.Buf("mid", 40)
	b.Buf("tail", 8)
	// Stale data: any nonzero byte takes the "dirty" exit.
	b.Mov(isa.R(isa.EBX), lowStack)
	b.Or(isa.R(isa.EBX), isa.MemAbs(StackTop-4))
	b.Or(isa.R(isa.EBX), isa.MemSym("head"))
	b.Or(isa.R(isa.EBX), at("mid", 20))
	b.Or(isa.R(isa.EBX), at("tail", 4))
	b.Or(isa.R(isa.EBX), pageLo)
	b.Or(isa.R(isa.EBX), pageHi)
	b.Cmp(isa.R(isa.EBX), isa.Imm(0))
	b.Jnz("dirty")
	// Stale taint shows once the page holds taint again: a tainted
	// byte mid-page, then both edges feed a predicate.
	b.CallAPI("CreateMutexA", isa.Sym("marker"))
	b.Movb(pageMid, isa.R(isa.EAX))
	b.Mov(isa.R(isa.ECX), pageLo)
	b.Or(isa.R(isa.ECX), pageHi)
	b.Cmp(isa.R(isa.ECX), isa.Imm(0))
	// The writes.
	b.Mov(pageLo, isa.R(isa.EAX))
	b.Mov(pageHi, isa.R(isa.EAX))
	b.Mov(at("mid", 0), isa.R(isa.EAX))
	b.Mov(lowStack, isa.Imm(0x11111111))
	b.Push(isa.Imm(0x22222222))
	b.Mov(isa.MemSym("head"), isa.Imm(0x33))
	b.Movb(at("mid", 20), isa.Imm(0x44))
	b.Movb(at("tail", 7), isa.Imm(0x55)) // the last byte .data writes
	b.Halt()
	b.Label("dirty")
	b.CallAPI("ExitProcess", isa.Imm(1))
	return b.MustBuild()
}

// checkClean fails unless every writable segment holds its loader
// content and every shadow page is clear.
func checkClean(t *testing.T, m *memory, when string) {
	t.Helper()
	for _, s := range m.segs {
		if s.readOnly {
			continue
		}
		want := s.pristine
		if want == nil {
			want = make([]byte, len(s.data))
		}
		if i := slices.IndexFunc(s.data, func(b byte) bool { return b != 0 }); !slices.Equal(s.data, want) {
			t.Errorf("%s: segment %q differs from its loader content (first nonzero byte at %d)", when, s.name, i)
		}
		for p, pg := range s.shadow {
			for i, set := range pg {
				if !set.Empty() {
					t.Errorf("%s: segment %q shadow page %d offset %d still tainted: %v", when, s.name, p, i, set)
					break
				}
			}
		}
	}
}

// TestDirtyRangeResets checks that restoring only the written range
// loses nothing: a Runner rerun and a fresh one-shot run serialize
// identically, a reset leaves every writable byte and shadow page
// clean, and the stack buffer and shadow pages go back to their pools
// clean.
func TestDirtyRangeResets(t *testing.T) {
	prog := dirtyProbe()
	opts := Options{Seed: 3, Profile: true}
	r, err := NewRunner(prog, winenv.New(winenv.DefaultIdentity()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tr1, err := r.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Exit != trace.ExitHalt || len(tr1.Predicates) != 0 {
		t.Fatalf("first run: exit %v, predicates %v; want a clean halt", tr1.Exit, tr1.Predicates)
	}
	tr2, err := r.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := Run(prog, winenv.New(winenv.DefaultIdentity()), opts)
	if err != nil {
		t.Fatal(err)
	}
	j1 := traceJSON(t, tr1)
	if traceJSON(t, tr2) != j1 {
		t.Error("Runner rerun diverged: the reset left data or taint behind")
	}
	if traceJSON(t, oneShot) != j1 {
		t.Error("one-shot run diverged from the Runner's first run")
	}

	mem := r.cpu.mem
	mem.reset()
	checkClean(t, mem, "after reset")

	// Dirty the memory again and release it: the stack buffer and the
	// shadow pages go back to their pools, and must go back clean.
	if _, err := r.Run(opts); err != nil {
		t.Fatal(err)
	}
	var stack []byte
	var pages [][]taint.Set
	for _, s := range mem.segs {
		if s.pooled {
			stack = s.data
		}
		for _, pg := range s.shadow {
			if pg != nil {
				pages = append(pages, pg)
			}
		}
	}
	if stack == nil || len(pages) == 0 {
		t.Fatal("the run borrowed no stack buffer or no shadow page")
	}
	r.Close()
	if i := slices.IndexFunc(stack, func(b byte) bool { return b != 0 }); i >= 0 {
		t.Errorf("stack buffer returned to the pool dirty at offset %d", i)
	}
	for _, pg := range pages {
		for i, set := range pg {
			if !set.Empty() {
				t.Errorf("shadow page returned to the pool tainted at offset %d: %v", i, set)
				break
			}
		}
	}
	// What the pools hand out next is clean too.
	bp := stackPool.Get().(*[]byte)
	if i := slices.IndexFunc(*bp, func(b byte) bool { return b != 0 }); i >= 0 {
		t.Errorf("stack buffer taken from the pool is dirty at offset %d", i)
	}
	stackPool.Put(bp)
	pg := shadowPool.Get().(*shadowPage)
	for i, set := range pg {
		if !set.Empty() {
			t.Errorf("shadow page taken from the pool is tainted at offset %d", i)
			break
		}
	}
	shadowPool.Put(pg)
}
