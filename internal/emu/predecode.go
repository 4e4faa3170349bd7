package emu

import (
	"fmt"

	"autovac/internal/isa"
)

// The emulator predecodes each program once into a flat execution form —
// operand kinds and symbol displacements resolved, jump targets turned
// into instruction indices, the load images of the data segments
// materialised — and caches it on the Program. Phase-II re-executes the
// same sample once per candidate mutation plus once per slice replay,
// so everything derivable from the immutable program is paid for once
// and shared across every replay.

// dOperand is a decoded operand: the symbol displacement is folded into
// val, so the hot path never consults the symbol table.
type dOperand struct {
	kind    isa.OperandKind
	reg     isa.Reg
	hasBase bool
	// val is the immediate plus the resolved symbol base (load layout
	// is deterministic, so absolute addresses are stable across runs).
	val uint32
}

// dInstr is a decoded instruction.
type dInstr struct {
	op       isa.Opcode
	dst, src dOperand
	// target is the resolved jump/call destination PC.
	target int
	// api and nArgs mirror the CALLAPI fields.
	api   string
	nArgs int
	// clearsTaint marks the x XOR x taint-clearing idiom, decided once
	// instead of comparing operands every step.
	clearsTaint bool
}

// segImage is the loader-produced content of one data segment. The
// read-only image is shared directly as segment backing (writes fault
// before touching data); the writable image doubles as the pristine
// copy used by reset.
type segImage struct {
	base     uint32
	image    []byte
	readOnly bool
	name     string
}

// decoded is the cached execution form of one program.
type decoded struct {
	instrs  []dInstr
	symbols map[string]uint32
	segs    []segImage
}

// decodedFor returns the program's cached execution form, building and
// publishing it on first use. A successful decode implies the program
// validated, so repeat executions skip Validate entirely.
func decodedFor(p *isa.Program) (*decoded, error) {
	if d, ok := p.Aux().(*decoded); ok {
		return d, nil
	}
	d, err := predecode(p)
	if err != nil {
		return nil, err
	}
	return p.SetAux(d).(*decoded), nil
}

// predecode validates the program and builds its execution form.
func predecode(p *isa.Program) (*decoded, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	// Run the real loader once on a scratch address space; its segments
	// become the shared load images and its symbol table the resolved
	// displacements, so predecoded addressing is identical to the
	// per-run loader it replaces.
	var scratch memory
	symbols := scratch.loadProgram(p)
	d := &decoded{symbols: symbols}
	for _, s := range scratch.segs {
		if s.name == "stack" {
			continue // the stack is per-run, pool-backed
		}
		d.segs = append(d.segs, segImage{
			base:     s.base,
			image:    s.data,
			readOnly: s.readOnly,
			name:     s.name,
		})
	}
	labels := p.Labels()
	d.instrs = make([]dInstr, len(p.Instrs))
	for i, in := range p.Instrs {
		di := dInstr{
			op:          in.Op,
			target:      -1,
			api:         in.API,
			nArgs:       in.NArgs,
			clearsTaint: in.Op == isa.XOR && in.Dst == in.Src,
		}
		var err error
		if di.dst, err = decodeOperand(in.Dst, symbols); err != nil {
			return nil, fmt.Errorf("emu: pc %d: %w", i, err)
		}
		if di.src, err = decodeOperand(in.Src, symbols); err != nil {
			return nil, fmt.Errorf("emu: pc %d: %w", i, err)
		}
		if in.Op.IsJump() || in.Op == isa.CALL {
			pc, ok := labels[in.Target]
			if !ok {
				return nil, fmt.Errorf("emu: pc %d: unresolved target %q", i, in.Target)
			}
			di.target = pc
		}
		d.instrs[i] = di
	}
	return d, nil
}

// decodeOperand folds an operand's symbol displacement into a flat form.
func decodeOperand(o isa.Operand, symbols map[string]uint32) (dOperand, error) {
	d := dOperand{kind: o.Kind, reg: o.Reg, hasBase: o.HasBase, val: o.Imm}
	if (o.Kind == isa.KindImm || o.Kind == isa.KindMem) && o.Sym != "" {
		base, ok := symbols[o.Sym]
		if !ok {
			return d, fmt.Errorf("unknown symbol %q", o.Sym)
		}
		d.val += base
	}
	return d, nil
}
