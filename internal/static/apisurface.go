package static

import (
	"math/bits"
	"sort"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/winapi"
)

// API-surface recovery: the Phase-0 triage pass. It answers, from the
// program text alone, "which APIs can this sample possibly invoke?" —
// including calls made through CALLAPIR, whose callee is only an
// address in a register. Direct CALLAPI callsites name their API in
// the instruction; indirect callsites are resolved by interpreting the
// sample's export-table walk against the process loader image
// (emu.Loader()), which is read-only and identical in every execution.
//
// The pass is a forward dataflow over an abstract value domain built
// for loader-resolving code:
//
//	⊥        unreachable / undefined
//	const v  exactly v on every path (the constant-propagation core,
//	         which also folds the rol/xor hash chains malware computes
//	         wanted-hashes with)
//	table    a pointer at one of a set of export-table row starts of a
//	         single module (the scanning cursor of a hash-resolve loop)
//	addrof   a value loaded from the address word of one of a set of
//	         rows (the resolved API address a CALLAPIR dispatches on)
//	⊤        anything
//
// Loads at constant addresses inside the loader image evaluate to the
// image word (the image is immutable); loads through a multi-row table
// pointer at the address-word offset yield addrof over those rows.
// ESP moves as in the emulator (PUSH and CALL −4, POP and RET +4, a
// callee's stdcall pop +4·NArgs), so a load at a constant ESP reads
// the word the run reads. Two flow-sensitive refinements give the pass
// its precision on the hash-resolve idiom, both justified by loader
// construction invariants (export hashes are unique per module;
// emu.buildLoader panics otherwise):
//
//   - hash-match: when a block loads a row's hash word through a table
//     pointer, compares it against a known constant K, and branches on
//     equality, the taken edge narrows the (unredefined) table pointer
//     to the rows whose hash is K, and the fall-through edge removes
//     them. The correlation is block-local: the record is invalidated
//     if either register is redefined before the branch.
//   - bound-check: a `cmp cursor, end; jl` whose taken edge requires
//     cursor < end clears the cursor's may-be-past-the-table bit when
//     end does not exceed the module's table end, unless the cursor
//     is redefined before the branch.
//
// Soundness: the recovered surface over-approximates the API set any
// standard-semantics execution invokes — every abstract operation
// covers the emulator's concrete one, branches are explored in both
// directions except where a refinement's guard concretely holds, and
// any value the domain cannot represent degrades to ⊤, which makes the
// whole surface Top (the pass refuses to claim anything). The corpus
// soundness test pins the relation dynamically-called ⊆ recovered on
// every sample.
type APISurface struct {
	// Top reports that the pass could not bound the callee set: the
	// surface is the full registry and Contains is always true.
	Top bool
	// APIs lists the recovered callee names, sorted, when !Top.
	APIs []string

	set map[string]bool
}

// Contains reports whether the surface admits the named API.
func (s *APISurface) Contains(api string) bool {
	return s.Top || s.set[api]
}

// AnyResource reports whether the surface admits any API touching a
// labelled resource namespace — the triage signal: when false, no
// execution of the sample can call a resource API, so Phase-I
// emulation cannot produce a candidate.
func (s *APISurface) AnyResource(reg *winapi.Registry) bool {
	if s.Top {
		return true
	}
	if reg == nil {
		reg = winapi.Standard()
	}
	for _, api := range s.APIs {
		if spec, ok := reg.Lookup(api); ok && spec.IsResource() {
			return true
		}
	}
	return false
}

// avKind enumerates the abstract value kinds.
type avKind uint8

const (
	avBot avKind = iota
	avConst
	avTable
	avAddrOf
	avTop
)

// av is one abstract value. mod indexes emu.Loader().Modules; rows is
// a bitmask of export-table row indices; past marks a table cursor
// that may sit at or beyond the table end (row stride preserved).
type av struct {
	kind avKind
	v    uint32
	mod  int
	rows uint64
	past bool
}

func avK(v uint32) av { return av{kind: avConst, v: v} }

var (
	topV = av{kind: avTop}
	botV = av{kind: avBot}
)

// asState is the per-program-point abstract register file.
type asState [isa.NumRegs]av

// surfacePass carries the pass-wide immutables.
type surfacePass struct {
	loader *emu.LoaderInfo
}

// rowOf classifies a constant as a table position of module m: a row
// index, or at-or-past-end on row stride.
func (sp *surfacePass) rowOf(m int, v uint32) (row int, past, ok bool) {
	mi := &sp.loader.Modules[m]
	if v < mi.TableAddr || (v-mi.TableAddr)%8 != 0 {
		return 0, false, false
	}
	if v < mi.TableEnd {
		return int((v - mi.TableAddr) / 8), false, true
	}
	return 0, true, true
}

// fullRows is the mask of every row of module m (export counts above
// 64 are rejected before the pass runs).
func (sp *surfacePass) fullRows(m int) uint64 {
	n := len(sp.loader.Modules[m].Exports)
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// tableOf classifies a constant as a table position of any module.
func (sp *surfacePass) tableOf(v uint32) (mod, row int, past, ok bool) {
	for m := range sp.loader.Modules {
		if r, p, match := sp.rowOf(m, v); match {
			return m, r, p, true
		}
	}
	return 0, 0, false, false
}

// meetAv joins two abstract values.
func (sp *surfacePass) meetAv(a, b av) av {
	if a.kind == avBot {
		return b
	}
	if b.kind == avBot {
		return a
	}
	if a.kind == avTop || b.kind == avTop {
		return topV
	}
	// Promote constants that sit on a table row so a scan cursor's
	// loop-head meet (initial row ∧ advanced row) stays a table value.
	promote := func(x av, mod int) (av, bool) {
		if x.kind != avConst {
			return x, x.kind == avTable || x.kind == avAddrOf
		}
		if r, p, ok := sp.rowOf(mod, x.v); ok {
			t := av{kind: avTable, mod: mod, past: p}
			if !p {
				t.rows = 1 << uint(r)
			}
			return t, true
		}
		return x, false
	}
	// Two table positions that disagree widen straight to the whole
	// table: a scan cursor visits every row anyway, and the hash-match
	// refinement re-narrows to the matching row at the branch, so the
	// widening costs no precision on the resolve idiom while collapsing
	// the fixpoint from one-row-per-pass to a couple of passes.
	widen := func(x, y av) av {
		out := av{kind: avTable, mod: x.mod, past: x.past || y.past}
		if x.rows == y.rows {
			out.rows = x.rows
		} else {
			out.rows = sp.fullRows(x.mod)
		}
		return out
	}
	switch {
	case a.kind == avConst && b.kind == avConst:
		if a.v == b.v {
			return a
		}
		am, _, _, aok := sp.tableOf(a.v)
		if aok {
			at, _ := promote(a, am)
			bt, bok := promote(b, am)
			if bok && bt.kind == avTable {
				return widen(at, bt)
			}
		}
		return topV
	case a.kind == avTable || b.kind == avTable:
		if b.kind == avTable {
			a, b = b, a
		}
		bb, ok := promote(b, a.mod)
		if !ok || bb.kind != avTable || bb.mod != a.mod {
			return topV
		}
		return widen(a, bb)
	case a.kind == avAddrOf || b.kind == avAddrOf:
		if b.kind == avAddrOf {
			a, b = b, a
		}
		if b.kind == avAddrOf {
			if a.mod != b.mod {
				return topV
			}
			return av{kind: avAddrOf, mod: a.mod, rows: a.rows | b.rows}
		}
		// const that is itself a resolved address of the same module.
		if b.kind == avConst {
			for r, e := range sp.loader.Modules[a.mod].Exports {
				if e.Addr == b.v {
					return av{kind: avAddrOf, mod: a.mod, rows: a.rows | 1<<uint(r)}
				}
			}
		}
		return topV
	}
	return topV
}

// loadRecord is the block-local hash-load correlation: dst was loaded
// from the hash word of base's candidate rows.
type loadRecord struct {
	valid     bool
	dst, base isa.Reg
	mod       int
	rows      uint64
}

// cmpRecord is the block's live compare, if the last flag-writer was a
// CMP.
type cmpRecord struct {
	valid          bool
	lReg, rReg     isa.Reg
	lIsReg, rIsReg bool
	lAv, rAv       av
}

// blockFacts is what a block's transfer leaves for edge refinement.
type blockFacts struct {
	load loadRecord
	cmp  cmpRecord
}

// evalOperand evaluates a source operand, returning the value and, for
// multi-row hash-word loads, the correlation record.
func (sp *surfacePass) evalOperand(o isa.Operand, st *asState) (av, loadRecord) {
	none := loadRecord{}
	switch o.Kind {
	case isa.KindReg:
		return st[o.Reg], none
	case isa.KindImm:
		if o.Sym != "" {
			// Symbol addresses are resolved at load time; abstract.
			return topV, none
		}
		return avK(o.Imm), none
	case isa.KindMem:
		if o.Sym != "" {
			return topV, none // program data is writable: unmodelled
		}
		if !o.HasBase {
			return sp.loadAt(avK(o.Imm), 0), none
		}
		base := st[o.Reg]
		if base.kind == avTable && !base.past && bits.OnesCount64(base.rows) > 1 && o.Imm == 0 {
			// Multi-row hash-word load: value unknown, but record the
			// correlation for the block's terminator.
			return topV, loadRecord{valid: true, base: o.Reg, mod: base.mod, rows: base.rows}
		}
		return sp.loadAt(base, o.Imm), none
	}
	return topV, none
}

// loadAt evaluates a 4-byte load at base+disp.
func (sp *surfacePass) loadAt(base av, disp uint32) av {
	switch base.kind {
	case avBot:
		return botV
	case avConst:
		if w, ok := sp.loader.ReadWord(base.v + disp); ok {
			return avK(w)
		}
		return topV
	case avTable:
		if base.past {
			return topV // may read beyond the table
		}
		if base.rows == 0 {
			return botV // refined-empty cursor: edge is dead
		}
		if bits.OnesCount64(base.rows) == 1 {
			r := uint(bits.TrailingZeros64(base.rows))
			mi := &sp.loader.Modules[base.mod]
			if w, ok := sp.loader.ReadWord(mi.TableAddr + 8*uint32(r) + disp); ok {
				return avK(w)
			}
			return topV
		}
		if disp == 4 {
			return av{kind: avAddrOf, mod: base.mod, rows: base.rows}
		}
		return topV
	}
	return topV
}

// addAv evaluates table-aware addition (the scan cursor's stride).
func (sp *surfacePass) addAv(a, b av) av {
	if a.kind == avConst && b.kind == avConst {
		return avK(a.v + b.v)
	}
	if b.kind == avTable {
		a, b = b, a
	}
	if a.kind == avTable && b.kind == avConst {
		if a.past && b.v != 0 {
			return topV
		}
		out := av{kind: avTable, mod: a.mod, past: a.past}
		mi := &sp.loader.Modules[a.mod]
		for rows := a.rows; rows != 0; rows &= rows - 1 {
			r := uint(bits.TrailingZeros64(rows))
			nr, past, ok := sp.rowOf(a.mod, mi.TableAddr+8*uint32(r)+b.v)
			if !ok {
				return topV
			}
			if past {
				out.past = true
			} else {
				out.rows |= 1 << uint(nr)
			}
		}
		return out
	}
	return topV
}

// aluAv evaluates the remaining binary ALU forms: constants fold with
// the emulator's exact semantics, everything else degrades to ⊤.
func aluAv(op isa.Opcode, a, b av) av {
	if a.kind != avConst || b.kind != avConst {
		return topV
	}
	v, ok := alu(op, a.v, b.v)
	if !ok {
		return topV
	}
	return avK(v)
}

// alu folds a binary ALU operation with the emulator's exact uint32
// wrap and &31 shift-mask semantics (internal/emu exec.go). ok is false
// for an opcode it does not fold; ADD goes through addAv, which also
// steps table cursors.
func alu(op isa.Opcode, a, b uint32) (v uint32, ok bool) {
	switch op {
	case isa.SUB:
		return a - b, true
	case isa.XOR:
		return a ^ b, true
	case isa.AND:
		return a & b, true
	case isa.OR:
		return a | b, true
	case isa.SHL:
		return a << (b & 31), true
	case isa.SHR:
		return a >> (b & 31), true
	}
	return 0, false
}

// transfer applies one instruction, maintaining the block facts. It is
// the package's one constant folder: the slice verifier walks the same
// transfer (verify.go).
func (sp *surfacePass) transfer(in isa.Instr, st *asState, f *blockFacts) {
	setReg := func(o isa.Operand, v av) {
		if o.Kind != isa.KindReg {
			return
		}
		st[o.Reg] = v
		if f.load.valid && (o.Reg == f.load.dst || o.Reg == f.load.base) {
			f.load.valid = false
		}
		// A register redefined after the compare no longer holds the
		// compared value, so the branch must not refine it.
		if f.cmp.lIsReg && o.Reg == f.cmp.lReg {
			f.cmp.lIsReg = false
		}
		if f.cmp.rIsReg && o.Reg == f.cmp.rReg {
			f.cmp.rIsReg = false
		}
	}
	clearFlags := func() { f.cmp.valid = false }
	// moveESP is the emulator's stack-pointer arithmetic; an
	// unreachable (⊥) stack pointer stays ⊥.
	moveESP := func(d int32) {
		if st[isa.ESP].kind != avBot {
			setReg(isa.R(isa.ESP), sp.addAv(st[isa.ESP], avK(uint32(d))))
		}
	}
	switch in.Op {
	case isa.MOV:
		v, rec := sp.evalOperand(in.Src, st)
		setReg(in.Dst, v)
		if rec.valid && in.Dst.Kind == isa.KindReg && in.Dst.Reg != rec.base {
			rec.dst = in.Dst.Reg
			f.load = rec
		}
	case isa.MOVB:
		if in.Dst.Kind == isa.KindReg {
			old := st[in.Dst.Reg]
			src, _ := sp.evalOperand(in.Src, st)
			if old.kind == avConst && src.kind == avConst {
				setReg(in.Dst, avK((old.v&^0xFF)|(src.v&0xFF)))
			} else {
				setReg(in.Dst, topV)
			}
		}
	case isa.LEA:
		setReg(in.Dst, topV)
	case isa.POP:
		moveESP(4)
		setReg(in.Dst, topV)
	case isa.PUSH, isa.CALL:
		moveESP(-4)
	case isa.RET:
		moveESP(4)
	case isa.ADD:
		a, _ := sp.evalOperand(in.Dst, st)
		b, _ := sp.evalOperand(in.Src, st)
		setReg(in.Dst, sp.addAv(a, b))
		clearFlags()
	case isa.SUB, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
		a, _ := sp.evalOperand(in.Dst, st)
		b, _ := sp.evalOperand(in.Src, st)
		setReg(in.Dst, aluAv(in.Op, a, b))
		clearFlags()
	case isa.INC:
		a, _ := sp.evalOperand(in.Dst, st)
		setReg(in.Dst, sp.addAv(a, avK(1)))
		clearFlags()
	case isa.DEC:
		a, _ := sp.evalOperand(in.Dst, st)
		setReg(in.Dst, aluAv(isa.SUB, a, avK(1)))
		clearFlags()
	case isa.CMP:
		l, _ := sp.evalOperand(in.Dst, st)
		r, _ := sp.evalOperand(in.Src, st)
		f.cmp = cmpRecord{valid: true, lAv: l, rAv: r}
		if in.Dst.Kind == isa.KindReg {
			f.cmp.lIsReg, f.cmp.lReg = true, in.Dst.Reg
		}
		if in.Src.Kind == isa.KindReg {
			f.cmp.rIsReg, f.cmp.rReg = true, in.Src.Reg
		}
	case isa.TEST:
		clearFlags()
	case isa.CALLAPI, isa.CALLAPIR:
		// Stdcall: the callee pops its arguments.
		setReg(isa.R(isa.EAX), topV)
		moveESP(int32(4 * in.NArgs))
	}
}

// refineEdge returns the out-state adjusted for taking (or not taking)
// block b's conditional terminator.
func (sp *surfacePass) refineEdge(out asState, term isa.Instr, f blockFacts, taken bool) asState {
	if !f.cmp.valid {
		return out
	}
	// Constant-compare pruning: when both sides are known, the branch
	// direction is decided (the emulator's exact flag semantics:
	// zf/sf of dst-src), and the other edge is infeasible — its state
	// is ⊥ everywhere, which the meet ignores. This is what keeps a
	// scan loop's first, concrete iteration from leaking its row into
	// the found-path state when the hash cannot match.
	if f.cmp.lAv.kind == avConst && f.cmp.rAv.kind == avConst {
		d := f.cmp.lAv.v - f.cmp.rAv.v
		var jump bool
		switch term.Op {
		case isa.JZ:
			jump = d == 0
		case isa.JNZ:
			jump = d != 0
		case isa.JL:
			jump = int32(d) < 0
		case isa.JGE:
			jump = int32(d) >= 0
		default:
			return out
		}
		if taken != jump {
			var dead asState
			for r := range dead {
				dead[r] = botV
			}
			return dead
		}
		return out
	}
	switch term.Op {
	case isa.JZ, isa.JNZ:
		// Hash-match refinement. JNZ's fall-through is JZ's taken edge.
		eq := taken == (term.Op == isa.JZ)
		lr := f.load
		if !lr.valid {
			return out
		}
		var k av
		switch {
		case f.cmp.lIsReg && f.cmp.lReg == lr.dst:
			k = f.cmp.rAv
		case f.cmp.rIsReg && f.cmp.rReg == lr.dst:
			k = f.cmp.lAv
		default:
			return out
		}
		if k.kind != avConst {
			return out
		}
		cur := out[lr.base]
		if cur.kind != avTable || cur.mod != lr.mod {
			return out
		}
		var match uint64
		for rows := lr.rows; rows != 0; rows &= rows - 1 {
			r := uint(bits.TrailingZeros64(rows))
			if sp.loader.Modules[lr.mod].Exports[r].Hash == k.v {
				match |= 1 << r
			}
		}
		if eq {
			cur.rows &= match
			cur.past = false // a matching hash word was read in-table
		} else {
			cur.rows &^= match
		}
		out[lr.base] = cur
	case isa.JL, isa.JGE:
		// Bound-check refinement: cursor < end clears may-be-past.
		// JGE's fall-through is the less-than edge.
		lt := taken == (term.Op == isa.JL)
		if !lt || !f.cmp.lIsReg || f.cmp.rAv.kind != avConst {
			return out
		}
		cur := out[f.cmp.lReg]
		if cur.kind == avTable && cur.past &&
			f.cmp.rAv.v <= sp.loader.Modules[cur.mod].TableEnd {
			cur.past = false
			out[f.cmp.lReg] = cur
		}
	}
	return out
}

// maxSurfaceIters bounds the fixpoint; the refinements narrow, so the
// textbook monotone-ascent argument does not apply verbatim, and a
// pass that fails to settle must fail safe (⊤), not spin.
const maxSurfaceIters = 1 << 12

// RecoverAPISurface runs the pass over one program.
func RecoverAPISurface(p *isa.Program) (*APISurface, error) {
	cfg, err := BuildCFG(p)
	if err != nil {
		return nil, err
	}
	return recoverSurface(cfg), nil
}

func recoverSurface(cfg *CFG) *APISurface {
	s := &APISurface{set: make(map[string]bool)}
	prog := cfg.Prog
	// Direct callsites contribute their name unconditionally.
	hasIndirect := false
	for _, in := range prog.Instrs {
		switch in.Op {
		case isa.CALLAPI:
			s.set[in.API] = true
		case isa.CALLAPIR:
			hasIndirect = true
		}
	}
	if hasIndirect && !resolveIndirect(cfg, s) {
		s.Top = true
		s.set = nil
		s.APIs = nil
		return s
	}
	for api := range s.set {
		s.APIs = append(s.APIs, api)
	}
	sort.Strings(s.APIs)
	return s
}

// resolveIndirect runs the dataflow and adds every CALLAPIR's resolved
// callee set to s. It reports false when any reachable indirect
// callsite's target degrades to ⊤.
func resolveIndirect(cfg *CFG, s *APISurface) bool {
	loader := emu.Loader()
	for _, m := range loader.Modules {
		if len(m.Exports) > 64 {
			return false // row masks are uint64; refuse, stay sound
		}
	}
	sp := &surfacePass{loader: loader}
	prog := cfg.Prog
	labels := prog.Labels()
	nb := cfg.NumBlocks()
	if nb == 0 {
		return true
	}

	var entry asState
	for r := range entry {
		entry[r] = avK(0)
	}
	entry[isa.ESP] = topV // concrete stack address left abstract

	ins := make([]asState, nb)
	outs := make([]asState, nb)
	facts := make([]blockFacts, nb)
	seeded := make([]bool, nb)
	ins[0] = entry
	seeded[0] = true

	// edgeState is pred p's contribution to succ t, folding refinement
	// over every edge kind that connects them (taken and fall-through
	// may target the same block).
	edgeState := func(p, t int) asState {
		b := cfg.Blocks[p]
		out := outs[p]
		term := prog.Instrs[b.End-1]
		if !term.Op.IsJump() || term.Op == isa.JMP {
			return out
		}
		takenTo := cfg.BlockOf[labels[term.Target]]
		fallTo := -1
		if b.End < len(prog.Instrs) {
			fallTo = cfg.BlockOf[b.End]
		}
		var st asState
		first := true
		merge := func(e asState) {
			if first {
				st, first = e, false
				return
			}
			for r := range st {
				st[r] = sp.meetAv(st[r], e[r])
			}
		}
		if takenTo == t {
			merge(sp.refineEdge(out, term, facts[p], true))
		}
		if fallTo == t {
			merge(sp.refineEdge(out, term, facts[p], false))
		}
		if first {
			return out
		}
		return st
	}

	runBlock := func(bi int) (asState, blockFacts) {
		b := cfg.Blocks[bi]
		st := ins[bi]
		var f blockFacts
		for i := b.Start; i < b.End; i++ {
			sp.transfer(prog.Instrs[i], &st, &f)
		}
		return st, f
	}

	iters := 0
	for changed := true; changed; {
		changed = false
		if iters++; iters > maxSurfaceIters {
			return false // failed to settle: fail safe
		}
		for _, bi := range cfg.RPO {
			b := cfg.Blocks[bi]
			st := ins[bi]
			for _, p := range b.Preds {
				if !seeded[p] {
					continue
				}
				e := edgeState(p, bi)
				for r := range st {
					st[r] = sp.meetAv(st[r], e[r])
				}
			}
			if st != ins[bi] {
				ins[bi] = st
				changed = true
			}
			out, f := runBlock(bi)
			if !seeded[bi] || out != outs[bi] || f != facts[bi] {
				outs[bi] = out
				facts[bi] = f
				seeded[bi] = true
				changed = true
			}
		}
	}

	// Final pass: resolve each reachable CALLAPIR against its in-state.
	// Unreachable blocks never execute, so their callsites contribute
	// nothing (CFG reachability over-approximates dynamic reachability).
	for _, b := range cfg.Blocks {
		if !cfg.Reachable[b.ID] {
			continue
		}
		st := ins[b.ID]
		var f blockFacts
		for i := b.Start; i < b.End; i++ {
			in := prog.Instrs[i]
			if in.Op == isa.CALLAPIR {
				if !addCallees(sp, st[in.Dst.Reg], s) {
					return false
				}
			}
			sp.transfer(in, &st, &f)
		}
	}
	return true
}

// addCallees adds the callee set an indirect call on target can reach.
// It reports false when the target is unbounded.
func addCallees(sp *surfacePass, target av, s *APISurface) bool {
	switch target.kind {
	case avBot:
		return true // unreachable state: never executes
	case avConst:
		// A miss faults the emulator before any API runs: no callee.
		if name, ok := sp.loader.APIAt(target.v); ok {
			s.set[name] = true
		}
		return true
	case avAddrOf:
		for rows := target.rows; rows != 0; rows &= rows - 1 {
			r := uint(bits.TrailingZeros64(rows))
			s.set[sp.loader.Modules[target.mod].Exports[r].Name] = true
		}
		return true
	case avTable:
		// A row address is never a resolved API address: faults.
		return true
	}
	return false
}

// SurfaceResourceFree statically decides whether the program provably
// cannot invoke any resource-labelled API — the Phase-0 triage
// predicate. A true result means Phase-I emulation cannot yield a
// candidate; false means "cannot rule it out" (including every program
// whose surface is ⊤).
func SurfaceResourceFree(p *isa.Program, reg *winapi.Registry) (bool, error) {
	// Short-circuit: a direct resource callsite is in every surface, so
	// the answer is "cannot rule it out" before building any CFG. This
	// is what keeps Phase-0 near-free on ordinary corpora, where
	// resource APIs are overwhelmingly called by name — the fixpoint
	// only runs for programs whose named calls are all benign.
	if reg == nil {
		reg = winapi.Standard()
	}
	for _, in := range p.Instrs {
		if in.Op == isa.CALLAPI {
			if spec, ok := reg.Lookup(in.API); ok && spec.IsResource() {
				return false, nil
			}
		}
	}
	surf, err := RecoverAPISurface(p)
	if err != nil {
		return false, err
	}
	return !surf.AnyResource(reg), nil
}

// MayHaveCandidates reports whether Phase-I emulation of the program
// could yield a candidate. Every candidate is a resource call, so this
// is the negation of SurfaceResourceFree.
//
// Deprecated: use SurfaceResourceFree, the one static admission gate.
func MayHaveCandidates(p *isa.Program, reg *winapi.Registry) (bool, error) {
	free, err := SurfaceResourceFree(p, reg)
	return !free, err
}
