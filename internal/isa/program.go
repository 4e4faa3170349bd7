package isa

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// DataItem is one named blob in a program's data segment.
type DataItem struct {
	Name string
	Data []byte
	// ReadOnly marks .rdata items (static strings); taint analysis
	// classifies identifiers terminating in read-only data as static
	// (paper §IV-C, Figure 2).
	ReadOnly bool
}

// Program is an executable unit: an instruction stream plus data items.
// Programs are immutable once built; the emulator copies data into its
// own memory at load time.
type Program struct {
	// Name identifies the program (sample ID or benign program name).
	Name string
	// Instrs is the instruction stream; the entry point is index 0.
	Instrs []Instr
	// Data lists the data items, laid out in order at load time.
	Data []DataItem

	labels map[string]int // label -> instruction index

	// aux caches one auxiliary artifact derived from the program (the
	// emulator's predecoded execution form). Write-once; safe for
	// concurrent use.
	aux atomic.Value
}

// Aux returns the auxiliary artifact cached on the program, or nil.
// Programs are immutable once built, so an artifact derived from the
// instruction stream and data items never goes stale.
func (p *Program) Aux() any {
	return p.aux.Load()
}

// SetAux publishes an auxiliary artifact and returns the winner: under
// a concurrent first use the first stored value sticks and every caller
// observes it. All callers must store values of one concrete type.
func (p *Program) SetAux(v any) any {
	if p.aux.CompareAndSwap(nil, v) {
		return v
	}
	return p.aux.Load()
}

// Labels returns the mapping from label to instruction index, computing
// it on first use.
func (p *Program) Labels() map[string]int {
	if p.labels == nil {
		p.labels = make(map[string]int)
		for i, in := range p.Instrs {
			if in.Label != "" {
				p.labels[in.Label] = i
			}
		}
	}
	return p.labels
}

// Span is one basic-block instruction range [Start, End): a maximal
// straight-line run entered only at Start.
type Span struct {
	Start, End int
}

// BlockSpans computes the program's basic-block partition. Leaders are
// the entry, every jump/call target, every labelled instruction, and
// every instruction after a control transfer (jump, call, ret, halt) —
// so fallthrough-into-label and dead-code-after-jump both start fresh
// blocks. static.BuildCFG builds its blocks from these spans; the
// program is not validated here (unresolved jump targets are simply not
// leaders).
func (p *Program) BlockSpans() []Span {
	n := len(p.Instrs)
	if n == 0 {
		return nil
	}
	labels := p.Labels()
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range p.Instrs {
		switch {
		case in.Op.IsJump() || in.Op == CALL:
			if t, ok := labels[in.Target]; ok {
				leader[t] = true
			}
			if i+1 < n {
				leader[i+1] = true
			}
		case in.Op == RET || in.Op == HALT:
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Label != "" {
			leader[i] = true
		}
	}
	var spans []Span
	for i := 0; i < n; i++ {
		if leader[i] {
			spans = append(spans, Span{Start: i})
		}
		spans[len(spans)-1].End = i + 1
	}
	return spans
}

// FindData returns the named data item, or nil.
func (p *Program) FindData(name string) *DataItem {
	for i := range p.Data {
		if p.Data[i].Name == name {
			return &p.Data[i]
		}
	}
	return nil
}

// ValidationError is one structural defect found by Validate: which
// program, which instruction (or -1 for data-segment defects), and a
// stable reason code alongside the human-readable detail.
type ValidationError struct {
	// Program is the offending program's name.
	Program string
	// PC is the offending instruction index, or -1 for whole-program
	// and data-segment defects.
	PC int
	// Reason is a stable code: duplicate-label, duplicate-data,
	// invalid-register, unknown-symbol, sym-bounds, bad-target,
	// missing-api, operand-kind.
	Reason string
	// Detail is the human-readable explanation.
	Detail string
}

// Error renders the defect.
func (e *ValidationError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("isa: %s: %s: %s", e.Program, e.Reason, e.Detail)
	}
	return fmt.Sprintf("isa: %s: pc %d: %s: %s", e.Program, e.PC, e.Reason, e.Detail)
}

// operandShape encodes which operand kinds an opcode accepts for its
// destination and source slots. Opcodes absent from the table take no
// operands.
type operandShape struct{ dst, src []OperandKind }

var (
	anyKind   = []OperandKind{KindReg, KindImm, KindMem}
	writable  = []OperandKind{KindReg, KindMem}
	regOnly   = []OperandKind{KindReg}
	memOnly   = []OperandKind{KindMem}
	noOperand = []OperandKind{KindNone}
)

// opShapes maps each opcode to the operand kinds the emulator can
// execute. Immediates are never writable, LEA needs a memory source
// and register destination, and control-flow instructions take their
// target as a label, not an operand.
var opShapes = map[Opcode]operandShape{
	NOP:      {noOperand, noOperand},
	MOV:      {writable, anyKind},
	MOVB:     {writable, anyKind},
	LEA:      {regOnly, memOnly},
	PUSH:     {anyKind, noOperand},
	POP:      {writable, noOperand},
	ADD:      {writable, anyKind},
	SUB:      {writable, anyKind},
	XOR:      {writable, anyKind},
	AND:      {writable, anyKind},
	OR:       {writable, anyKind},
	SHL:      {writable, anyKind},
	SHR:      {writable, anyKind},
	INC:      {writable, noOperand},
	DEC:      {writable, noOperand},
	CMP:      {anyKind, anyKind},
	TEST:     {anyKind, anyKind},
	JMP:      {noOperand, noOperand},
	JZ:       {noOperand, noOperand},
	JNZ:      {noOperand, noOperand},
	JL:       {noOperand, noOperand},
	JGE:      {noOperand, noOperand},
	CALL:     {noOperand, noOperand},
	RET:      {noOperand, noOperand},
	CALLAPI:  {noOperand, noOperand},
	CALLAPIR: {regOnly, noOperand},
	HALT:     {noOperand, noOperand},
}

func kindAllowed(k OperandKind, allowed []OperandKind) bool {
	for _, a := range allowed {
		if k == a {
			return true
		}
	}
	return false
}

// Validate checks structural integrity: jump/call targets resolve,
// symbolic operands name data items and stay inside them, operand
// kinds are consistent with each opcode, registers are valid, CALLAPI
// has an API name, and labels are unique. Failures are typed
// *ValidationError values, so the assembler and the emulator load path
// report the defect instead of misexecuting.
func (p *Program) Validate() error {
	fail := func(pc int, reason, format string, args ...interface{}) error {
		return &ValidationError{Program: p.Name, PC: pc, Reason: reason,
			Detail: fmt.Sprintf(format, args...)}
	}
	seen := make(map[string]bool)
	for i, in := range p.Instrs {
		if in.Label != "" {
			if seen[in.Label] {
				return fail(i, "duplicate-label", "duplicate label %q", in.Label)
			}
			seen[in.Label] = true
		}
	}
	labels := p.Labels()
	dataLen := make(map[string]int, len(p.Data))
	for _, d := range p.Data {
		if _, dup := dataLen[d.Name]; dup {
			return fail(-1, "duplicate-data", "data item %q already defined", d.Name)
		}
		dataLen[d.Name] = len(d.Data)
	}
	checkOperand := func(i int, o Operand, slot string, allowed []OperandKind) error {
		if !kindAllowed(o.Kind, allowed) {
			return fail(i, "operand-kind", "%s does not accept %s operand %s",
				p.Instrs[i].Op, slot, o)
		}
		switch o.Kind {
		case KindReg:
			if !o.Reg.Valid() {
				return fail(i, "invalid-register", "invalid register in %s operand", slot)
			}
		case KindImm, KindMem:
			if o.Sym != "" {
				n, ok := dataLen[o.Sym]
				if !ok {
					return fail(i, "unknown-symbol", "unknown symbol %q", o.Sym)
				}
				// A symbolic displacement must stay inside the item it
				// names (one past the end is tolerated for end-pointer
				// arithmetic); anything further is a latent fault the
				// guard padding would otherwise mask.
				if o.Sym != "" && !o.HasBase && o.Imm > uint32(n) {
					return fail(i, "sym-bounds", "displacement %d exceeds %q (%d bytes)",
						o.Imm, o.Sym, n)
				}
			}
			if o.Kind == KindMem && o.HasBase && !o.Reg.Valid() {
				return fail(i, "invalid-register", "invalid register as memory base")
			}
		}
		return nil
	}
	for i, in := range p.Instrs {
		shape, known := opShapes[in.Op]
		if !known {
			return fail(i, "operand-kind", "unknown opcode %v", in.Op)
		}
		if err := checkOperand(i, in.Dst, "destination", shape.dst); err != nil {
			return err
		}
		if err := checkOperand(i, in.Src, "source", shape.src); err != nil {
			return err
		}
		switch {
		case in.Op == CALLAPI && in.API == "":
			return fail(i, "missing-api", "callapi without API name")
		case in.Op == CALLAPI && in.NArgs < 0:
			return fail(i, "missing-api", "callapi %s with negative NArgs %d", in.API, in.NArgs)
		case in.Op == CALLAPIR && in.NArgs < 0:
			return fail(i, "missing-api", "callapir with negative NArgs %d", in.NArgs)
		case (in.Op.IsJump() || in.Op == CALL) && in.Target == "":
			return fail(i, "bad-target", "%s without target", in.Op)
		case in.Op.IsJump() || in.Op == CALL:
			if _, ok := labels[in.Target]; !ok {
				return fail(i, "bad-target", "unresolved target %q", in.Target)
			}
		}
	}
	return nil
}

// Disassemble renders the whole program as assembly text.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s (%d instrs, %d data items)\n",
		p.Name, len(p.Instrs), len(p.Data))
	for _, d := range p.Data {
		seg := ".data"
		if d.ReadOnly {
			seg = ".rdata"
		}
		fmt.Fprintf(&b, "%s %s: %q\n", seg, d.Name, d.Data)
	}
	for i, in := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", i, in)
	}
	return b.String()
}
