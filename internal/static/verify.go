package static

import (
	"fmt"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/winapi"
)

// SliceError is one verifier rejection: which rule an extracted slice
// violated, and where.
type SliceError struct {
	// Slice names the offending program.
	Slice string
	// PC is the offending instruction index (-1 for whole-slice rules).
	PC int
	// Rule is the stable rule identifier (control-flow, api-allowlist,
	// memory-bounds, stack-balance, result-addr, structure).
	Rule string
	// Msg is the human-readable explanation.
	Msg string
}

// Error renders the rejection.
func (e *SliceError) Error() string {
	if e.PC < 0 {
		return fmt.Sprintf("static: slice %s: %s: %s", e.Slice, e.Rule, e.Msg)
	}
	return fmt.Sprintf("static: slice %s: pc %d: %s: %s", e.Slice, e.PC, e.Rule, e.Msg)
}

// Verifier rule identifiers.
const (
	RuleStructure   = "structure"
	RuleControlFlow = "control-flow"
	RuleAPIAllow    = "api-allowlist"
	RuleMemBounds   = "memory-bounds"
	RuleStackBal    = "stack-balance"
	RuleResultAddr  = "result-addr"
)

// VerifySlice statically checks that an extracted slice program is
// safe to replay on an end host: it terminates, touches only memory
// the replay maps, calls only APIs that are deterministic and free of
// host resource side effects, and leaves the result address readable.
// A nil error means every genuine corpus-extracted slice property
// holds; any violation returns a *SliceError naming the rule.
//
// The rules, each matched to a way replay can go wrong:
//
//   - control-flow: jump and call targets must resolve inside the
//     slice and point strictly forward. Backward edges could loop a
//     replay forever; genuine slices are straight-line.
//   - stack-balance: RET must have a matching CALL and the walk must
//     end with call depth zero; stack accesses must stay inside the
//     mapped stack segment when ESP is statically known.
//   - api-allowlist: every CALLAPI must name a registered API with the
//     declared argument count, and must not be a labelled resource API
//     (host side effects), a ClassRandom source (non-deterministic
//     replay), or a termination API. Semantic host-information APIs
//     and pure string helpers remain — exactly the vocabulary
//     algorithm-deterministic identifiers are computed in.
//   - memory-bounds: accesses at statically known addresses must land
//     in mapped segments (writes in writable ones). Reads of mapped
//     but unwritten memory are deterministic zeros, so mapped-ness is
//     precisely the replay-fault criterion.
//   - result-addr: the identifier's address must be mapped.
//
// Address computations the constant walk cannot resolve are accepted:
// the verifier is a MAY-fault filter and must keep every slice the
// dynamic pipeline legitimately extracts.
func VerifySlice(p *isa.Program, resultAddr uint32, reg *winapi.Registry) error {
	if p == nil {
		return &SliceError{Slice: "<nil>", PC: -1, Rule: RuleStructure, Msg: "no program"}
	}
	if err := p.Validate(); err != nil {
		return &SliceError{Slice: p.Name, PC: -1, Rule: RuleStructure, Msg: err.Error()}
	}
	if reg == nil {
		reg = winapi.Standard()
	}
	layout := emu.Layout(p)
	if !layout.Mapped(resultAddr, 1) {
		return &SliceError{Slice: p.Name, PC: -1, Rule: RuleResultAddr,
			Msg: fmt.Sprintf("result address %#x is not mapped", resultAddr)}
	}
	exit := make(map[string]bool)
	for _, n := range winapi.TerminationAPIs() {
		exit[n] = true
	}
	labels := p.Labels()

	// Register state for address resolution: emulator reset values,
	// walked through the Phase-0 surface pass's transfer.
	sp := &surfacePass{loader: emu.Loader()}
	var st asState
	for r := range st {
		st[r] = avK(0)
	}
	st[isa.ESP] = avK(emu.StackTop)
	var facts blockFacts

	fail := func(pc int, rule, format string, args ...interface{}) error {
		return &SliceError{Slice: p.Name, PC: pc, Rule: rule, Msg: fmt.Sprintf(format, args...)}
	}
	// addrOf resolves a memory operand to a constant address if the
	// walk knows enough.
	addrOf := func(o isa.Operand) (uint32, bool) {
		a := o.Imm
		if o.Sym != "" {
			base, ok := layout.Symbols[o.Sym]
			if !ok {
				return 0, false
			}
			a += base
		}
		if o.HasBase {
			if st[o.Reg].kind != avConst {
				return 0, false
			}
			a += st[o.Reg].v
		}
		return a, true
	}
	checkAccess := func(pc int, o isa.Operand, size uint32, write bool) error {
		if o.Kind != isa.KindMem {
			return nil
		}
		a, ok := addrOf(o)
		if !ok {
			return nil // unresolvable: accept
		}
		if !layout.Mapped(a, size) {
			return fail(pc, RuleMemBounds, "%v access at %#x+%d is unmapped", o, a, size)
		}
		if write && !layout.Writable(a, size) {
			return fail(pc, RuleMemBounds, "%v write at %#x hits read-only data", o, a)
		}
		return nil
	}
	// checkStack checks a size-byte stack access at ESP+off.
	checkStack := func(pc int, off int32, size uint32) error {
		if st[isa.ESP].kind != avConst {
			return nil
		}
		a := st[isa.ESP].v + uint32(off)
		if !layout.Mapped(a, size) {
			return fail(pc, RuleStackBal, "stack access at %#x+%d outside the mapped stack", a, size)
		}
		return nil
	}

	depth := 0
	for pc, in := range p.Instrs {
		switch in.Op {
		case isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JGE, isa.CALL:
			t := labels[in.Target]
			if t <= pc {
				return fail(pc, RuleControlFlow, "%s %s targets pc %d: backward edge (potential replay loop)", in.Op, in.Target, t)
			}
			if in.Op == isa.CALL {
				if err := checkStack(pc, -4, 4); err != nil {
					return err
				}
				depth++
			}
			// Branching invalidates the straight-line constant state.
			for r := range st {
				st[r] = topV
			}
		case isa.RET:
			depth--
			if depth < 0 {
				return fail(pc, RuleStackBal, "ret without matching call")
			}
			if err := checkStack(pc, 0, 4); err != nil {
				return err
			}
		case isa.PUSH:
			if err := checkStack(pc, -4, 4); err != nil {
				return err
			}
			if err := checkAccess(pc, in.Dst, 4, false); err != nil {
				return err
			}
		case isa.POP:
			if err := checkStack(pc, 0, 4); err != nil {
				return err
			}
			if err := checkAccess(pc, in.Dst, 4, true); err != nil {
				return err
			}
		case isa.CALLAPI:
			spec, ok := reg.Lookup(in.API)
			if !ok {
				return fail(pc, RuleAPIAllow, "unknown API %q", in.API)
			}
			if spec.NArgs != winapi.Variadic && spec.NArgs != in.NArgs {
				return fail(pc, RuleAPIAllow, "%s expects %d args, callsite passes %d", in.API, spec.NArgs, in.NArgs)
			}
			if spec.IsResource() {
				return fail(pc, RuleAPIAllow, "%s touches host resource namespace %s", in.API, spec.Label.Resource)
			}
			if spec.Label.Class == winapi.ClassRandom {
				return fail(pc, RuleAPIAllow, "%s is a non-deterministic source", in.API)
			}
			if exit[in.API] {
				return fail(pc, RuleAPIAllow, "%s terminates the replaying process", in.API)
			}
			if in.NArgs > 0 {
				if err := checkStack(pc, 0, uint32(4*in.NArgs)); err != nil {
					return err
				}
			}
		case isa.CALLAPIR:
			// A register-indirect API call's callee depends on runtime
			// state the verifier cannot pin down, so none of the
			// allowlist properties can be established. Genuine slices
			// are rebuilt from named calls; computed calls never belong
			// in one.
			return fail(pc, RuleAPIAllow, "register-indirect api call cannot be allowlisted for replay")
		case isa.MOV, isa.LEA, isa.ADD, isa.SUB, isa.XOR, isa.AND,
			isa.OR, isa.SHL, isa.SHR, isa.INC, isa.DEC, isa.CMP, isa.TEST:
			if in.Op != isa.LEA {
				if err := checkAccess(pc, in.Src, 4, false); err != nil {
					return err
				}
				writeDst := in.Op != isa.CMP && in.Op != isa.TEST
				if err := checkAccess(pc, in.Dst, 4, writeDst); err != nil {
					return err
				}
			}
		case isa.MOVB:
			if err := checkAccess(pc, in.Src, 1, false); err != nil {
				return err
			}
			if err := checkAccess(pc, in.Dst, 1, true); err != nil {
				return err
			}
		}
		sp.transfer(in, &st, &facts)
	}
	if depth != 0 {
		return fail(-1, RuleStackBal, "%d call(s) without matching ret", depth)
	}
	return nil
}
