package static

import (
	"fmt"
	"sort"

	"autovac/internal/isa"
)

// LocKind distinguishes the abstract storage locations the def-use
// analysis tracks.
type LocKind uint8

// Abstract location kinds.
const (
	// LReg is one of the eight general-purpose registers.
	LReg LocKind = iota
	// LFlags is the ZF/SF flags register.
	LFlags
	// LSym is a named data item addressed symbolically ([name] or
	// [name+disp]); partial writes are modelled weakly (a write never
	// kills earlier definitions of the item).
	LSym
	// LMem is the coarse "all other memory" cell: stack slots,
	// register-relative and absolute addresses. It aliases every LSym
	// (a register can point into any data item).
	LMem
)

// Loc is one abstract storage location.
type Loc struct {
	Kind LocKind
	// Reg is set for LReg.
	Reg isa.Reg
	// Sym is set for LSym.
	Sym string
}

// RegLoc returns the location of a register.
func RegLoc(r isa.Reg) Loc { return Loc{Kind: LReg, Reg: r} }

// FlagsLoc returns the flags location.
func FlagsLoc() Loc { return Loc{Kind: LFlags} }

// SymLoc returns the location of a named data item.
func SymLoc(name string) Loc { return Loc{Kind: LSym, Sym: name} }

// MemLoc returns the coarse non-symbolic memory location.
func MemLoc() Loc { return Loc{Kind: LMem} }

// String renders the location.
func (l Loc) String() string {
	switch l.Kind {
	case LReg:
		return l.Reg.String()
	case LFlags:
		return "flags"
	case LSym:
		return "[" + l.Sym + "]"
	default:
		return "mem"
	}
}

// bitset is a fixed-capacity bit vector over instruction indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

// or merges o into b, reporting whether b changed.
func (b bitset) or(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

func (b bitset) clone() bitset { return append(bitset(nil), b...) }

func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// indices returns the set members in ascending order.
func (b bitset) indices() []int {
	var out []int
	for w, word := range b {
		for word != 0 {
			bit := word & -word
			out = append(out, w*64+popLog2(bit))
			word &^= bit
		}
	}
	return out
}

// popLog2 returns log2 of a one-bit word.
func popLog2(w uint64) int {
	n := 0
	for w > 1 {
		w >>= 1
		n++
	}
	return n
}

// DefUse holds reaching definitions and def-use chains for one
// program: for every instruction, which earlier instructions' writes
// may supply the values it reads.
//
// Precision notes (all deliberately MAY-sided): register and flags
// definitions are strong (a write kills prior writes); memory
// definitions are weak (symbolic items may be partially written, and
// the coarse LMem cell aliases everything reachable through a
// register). CALLAPI is modelled as reading the stack/memory and
// defining EAX, ESP, and memory — the emulator's API implementations
// only touch machine state through those channels.
type DefUse struct {
	cfg  *CFG
	locs []Loc
	ids  map[Loc]int
	// uses[i] and defs[i] are instruction i's abstract use/def sets.
	uses, defs [][]Loc
	// reachIn[i][loc] is the set of instruction indices whose
	// definition of loc may reach instruction i.
	reachIn [][]bitset
}

// BuildDefUse computes reaching definitions over the CFG.
func BuildDefUse(cfg *CFG) *DefUse {
	n := len(cfg.Prog.Instrs)
	d := &DefUse{cfg: cfg, ids: make(map[Loc]int)}
	// Intern the full location universe up front: registers, flags,
	// coarse memory, and every data symbol.
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		d.intern(RegLoc(r))
	}
	d.intern(FlagsLoc())
	d.intern(MemLoc())
	for _, item := range cfg.Prog.Data {
		d.intern(SymLoc(item.Name))
	}
	d.uses = make([][]Loc, n)
	d.defs = make([][]Loc, n)
	for i, in := range cfg.Prog.Instrs {
		d.uses[i], d.defs[i] = effects(in)
	}

	nl := len(d.locs)
	newState := func() []bitset {
		st := make([]bitset, nl)
		for i := range st {
			st[i] = newBitset(n)
		}
		return st
	}
	// Block-level IN/OUT fixpoint.
	ins := make([][]bitset, cfg.NumBlocks())
	outs := make([][]bitset, cfg.NumBlocks())
	for b := range ins {
		ins[b] = newState()
		outs[b] = newState()
	}
	transferBlock := func(b *Block, st []bitset) {
		for i := b.Start; i < b.End; i++ {
			d.transfer(i, st)
		}
	}
	order := cfg.RPO
	if len(order) == 0 && cfg.NumBlocks() > 0 {
		order = []int{0}
	}
	for changed := true; changed; {
		changed = false
		for _, bi := range order {
			b := cfg.Blocks[bi]
			for _, p := range b.Preds {
				for l := range ins[bi] {
					if ins[bi][l].or(outs[p][l]) {
						changed = true
					}
				}
			}
			st := make([]bitset, nl)
			for l := range st {
				st[l] = ins[bi][l].clone()
			}
			transferBlock(b, st)
			for l := range st {
				if outs[bi][l].or(st[l]) {
					changed = true
				}
			}
		}
	}

	// Per-instruction reaching state (including unreachable blocks,
	// which start from an empty IN).
	d.reachIn = make([][]bitset, n)
	for _, b := range cfg.Blocks {
		st := make([]bitset, nl)
		for l := range st {
			st[l] = ins[b.ID][l].clone()
		}
		for i := b.Start; i < b.End; i++ {
			snap := make([]bitset, nl)
			for l := range st {
				snap[l] = st[l].clone()
			}
			d.reachIn[i] = snap
			d.transfer(i, st)
		}
	}
	return d
}

func (d *DefUse) intern(l Loc) int {
	if id, ok := d.ids[l]; ok {
		return id
	}
	id := len(d.locs)
	d.locs = append(d.locs, l)
	d.ids[l] = id
	return id
}

// transfer applies instruction i's definitions to the state.
func (d *DefUse) transfer(i int, st []bitset) {
	// MOVB into a register replaces only the low byte (and the emulator
	// unions taint), so the prior definition still contributes: weak.
	weak := d.cfg.Prog.Instrs[i].Op == isa.MOVB
	for _, l := range d.defs[i] {
		id := d.ids[l]
		switch l.Kind {
		case LReg, LFlags:
			if !weak {
				st[id].clear() // strong update
			}
		}
		st[id].set(i)
	}
}

// DefsOf returns the instruction indices whose definition of loc may
// reach a use at instruction i, in ascending order. Memory aliasing is
// folded in: a symbolic item's reads also see coarse-memory writers,
// and a coarse-memory read sees every memory writer.
func (d *DefUse) DefsOf(i int, l Loc) []int {
	st := d.reachIn[i]
	if st == nil {
		return nil
	}
	acc := newBitset(len(d.cfg.Prog.Instrs))
	add := func(l Loc) {
		if id, ok := d.ids[l]; ok {
			acc.or(st[id])
		}
	}
	add(l)
	switch l.Kind {
	case LSym:
		add(MemLoc())
	case LMem:
		for _, item := range d.cfg.Prog.Data {
			add(SymLoc(item.Name))
		}
	}
	return acc.indices()
}

// Chain is one def→use edge, for golden tests and debugging.
type Chain struct {
	Def, Use int
	Loc      Loc
}

// Chains enumerates every def→use edge in the program, sorted by
// (use, def, loc).
func (d *DefUse) Chains() []Chain {
	var out []Chain
	for i := range d.uses {
		for _, l := range d.uses[i] {
			for _, def := range d.DefsOf(i, l) {
				out = append(out, Chain{Def: def, Use: i, Loc: l})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Use != out[b].Use {
			return out[a].Use < out[b].Use
		}
		if out[a].Def != out[b].Def {
			return out[a].Def < out[b].Def
		}
		return out[a].Loc.String() < out[b].Loc.String()
	})
	return out
}

// String renders a chain.
func (c Chain) String() string {
	return fmt.Sprintf("%d->%d %s", c.Def, c.Use, c.Loc)
}

// memOperandLoc maps a KindMem operand to its abstract location.
func memOperandLoc(o isa.Operand) Loc {
	if o.Sym != "" && !o.HasBase {
		return SymLoc(o.Sym)
	}
	return MemLoc()
}

// operandUses returns the locations read when an operand is used as a
// source (value read), including the address computation.
func operandUses(o isa.Operand) []Loc {
	switch o.Kind {
	case isa.KindReg:
		return []Loc{RegLoc(o.Reg)}
	case isa.KindMem:
		uses := []Loc{memOperandLoc(o)}
		if o.HasBase {
			uses = append(uses, RegLoc(o.Reg))
		}
		return uses
	default:
		return nil
	}
}

// operandAddrUses returns only the address-computation reads of a
// destination operand (the stored-to location itself is a def).
func operandAddrUses(o isa.Operand) []Loc {
	if o.Kind == isa.KindMem && o.HasBase {
		return []Loc{RegLoc(o.Reg)}
	}
	return nil
}

// operandDefs returns the locations written when an operand is a
// destination.
func operandDefs(o isa.Operand) []Loc {
	switch o.Kind {
	case isa.KindReg:
		return []Loc{RegLoc(o.Reg)}
	case isa.KindMem:
		return []Loc{memOperandLoc(o)}
	default:
		return nil
	}
}

// effects returns an instruction's abstract use and def sets.
func effects(in isa.Instr) (uses, defs []Loc) {
	esp := RegLoc(isa.ESP)
	switch in.Op {
	case isa.NOP, isa.HALT, isa.JMP:
		return nil, nil
	case isa.MOV:
		uses = append(operandUses(in.Src), operandAddrUses(in.Dst)...)
		defs = operandDefs(in.Dst)
	case isa.MOVB:
		// A byte store into a register keeps the upper 24 bits, so the
		// destination's prior value is also an input.
		uses = append(operandUses(in.Src), operandAddrUses(in.Dst)...)
		if in.Dst.Kind == isa.KindReg {
			uses = append(uses, RegLoc(in.Dst.Reg))
		}
		defs = operandDefs(in.Dst)
	case isa.LEA:
		uses = operandAddrUses(in.Src)
		defs = operandDefs(in.Dst)
	case isa.PUSH:
		uses = append(operandUses(in.Dst), esp)
		defs = []Loc{esp, MemLoc()}
	case isa.POP:
		uses = []Loc{esp, MemLoc()}
		defs = append(operandDefs(in.Dst), esp)
		uses = append(uses, operandAddrUses(in.Dst)...)
	case isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
		uses = append(operandUses(in.Dst), operandUses(in.Src)...)
		defs = append(operandDefs(in.Dst), FlagsLoc())
	case isa.INC, isa.DEC:
		uses = operandUses(in.Dst)
		defs = append(operandDefs(in.Dst), FlagsLoc())
	case isa.CMP, isa.TEST:
		uses = append(operandUses(in.Dst), operandUses(in.Src)...)
		defs = []Loc{FlagsLoc()}
	case isa.JZ, isa.JNZ, isa.JL, isa.JGE:
		uses = []Loc{FlagsLoc()}
	case isa.CALL:
		uses = []Loc{esp}
		defs = []Loc{esp, MemLoc()}
	case isa.RET:
		uses = []Loc{esp, MemLoc()}
		defs = []Loc{esp}
	case isa.CALLAPI:
		// Arguments live on the stack; implementations read and write
		// machine state only through memory and EAX.
		uses = []Loc{esp, MemLoc()}
		defs = []Loc{RegLoc(isa.EAX), esp, MemLoc()}
	case isa.CALLAPIR:
		// Like CALLAPI, plus the register holding the resolved target
		// address is an input (the dispatcher reads it to pick the API).
		uses = []Loc{RegLoc(in.Dst.Reg), esp, MemLoc()}
		defs = []Loc{RegLoc(isa.EAX), esp, MemLoc()}
	}
	return uses, defs
}
