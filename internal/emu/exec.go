package emu

import (
	"fmt"

	"autovac/internal/isa"
	"autovac/internal/taint"
	"autovac/internal/trace"
)

// Execute runs the program to completion and returns the trace. Runtime
// faults (bad memory, unknown APIs, stack underflow) terminate the run
// with ExitFault recorded in the trace rather than returning an error:
// a crashing malware sample is an observation, not an analysis failure.
func (c *CPU) Execute() *trace.Trace {
	for !c.done {
		if c.tr.StepCount >= c.opts.MaxSteps {
			c.exitKind = trace.ExitLimit
			break
		}
		if c.pc < 0 || c.pc >= len(c.code) {
			if c.pc == len(c.code) {
				// Falling off the end is a normal stop.
				c.exitKind = trace.ExitHalt
			} else {
				c.faultf("pc %d out of range", c.pc)
			}
			break
		}
		if err := c.step(); err != nil {
			c.faultf("%v", err)
			break
		}
	}
	c.tr.Exit = c.exitKind
	c.tr.ExitCode = c.exitCode
	c.tr.Fault = c.fault
	c.tr.Sources = c.table.Take()
	return c.tr
}

// faultf ends execution with a fault.
func (c *CPU) faultf(format string, args ...interface{}) {
	c.done = true
	c.exitKind = trace.ExitFault
	c.fault = fmt.Sprintf(format, args...)
}

// step executes one predecoded instruction.
func (c *CPU) step() error {
	in := &c.code[c.pc]
	pc := c.pc
	c.tr.StepCount++

	if c.opts.Profile {
		c.curReads = c.curReads[:0]
		c.curWrites = c.curWrites[:0]
	}
	apiSeq := -1
	taken := false

	next := pc + 1
	switch in.op {
	case isa.NOP:

	case isa.MOV:
		v, t, err := c.readOperand(in.src)
		if err != nil {
			return err
		}
		if err := c.writeOperand(in.dst, v, t); err != nil {
			return err
		}

	case isa.MOVB:
		v, t, err := c.readOperandByte(in.src)
		if err != nil {
			return err
		}
		if err := c.writeOperandByte(in.dst, v, t); err != nil {
			return err
		}

	case isa.LEA:
		addr, t, err := c.effectiveAddr(in.src)
		if err != nil {
			return err
		}
		if err := c.writeOperand(in.dst, addr, t); err != nil {
			return err
		}

	case isa.PUSH:
		v, t, err := c.readOperand(in.dst)
		if err != nil {
			return err
		}
		if err := c.push(v, t); err != nil {
			return err
		}

	case isa.POP:
		v, t, err := c.pop()
		if err != nil {
			return err
		}
		if err := c.writeOperand(in.dst, v, t); err != nil {
			return err
		}

	case isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR:
		a, ta, err := c.readOperand(in.dst)
		if err != nil {
			return err
		}
		b, tb, err := c.readOperand(in.src)
		if err != nil {
			return err
		}
		var v uint32
		switch in.op {
		case isa.ADD:
			v = a + b
		case isa.SUB:
			v = a - b
		case isa.XOR:
			v = a ^ b
		case isa.AND:
			v = a & b
		case isa.OR:
			v = a | b
		case isa.SHL:
			v = a << (b & 31)
		case isa.SHR:
			v = a >> (b & 31)
		}
		t := ta.Union(tb)
		// x XOR x is the classic taint-clearing idiom (predecoded).
		if in.clearsTaint {
			t = taint.Set{}
		}
		if err := c.writeOperand(in.dst, v, t); err != nil {
			return err
		}
		c.setFlags(v, t)

	case isa.INC, isa.DEC:
		a, ta, err := c.readOperand(in.dst)
		if err != nil {
			return err
		}
		v := a + 1
		if in.op == isa.DEC {
			v = a - 1
		}
		if err := c.writeOperand(in.dst, v, ta); err != nil {
			return err
		}
		c.setFlags(v, ta)

	case isa.CMP, isa.TEST:
		a, ta, err := c.readOperand(in.dst)
		if err != nil {
			return err
		}
		b, tb, err := c.readOperand(in.src)
		if err != nil {
			return err
		}
		var v uint32
		if in.op == isa.CMP {
			v = a - b
		} else {
			v = a & b
		}
		t := ta.Union(tb)
		c.setFlags(v, t)
		// A tainted predicate is AUTOVAC's Phase-I signal: a branch
		// depends on system-resource data (§III-B).
		if !t.Empty() {
			c.tr.Predicates = append(c.tr.Predicates, trace.PredicateHit{
				PC: pc, Sources: t.Sources(),
			})
		}

	case isa.JMP:
		next = in.target
		taken = true

	case isa.JZ, isa.JNZ, isa.JL, isa.JGE:
		c.noteRead(trace.FlagsLoc(), flagBits(c.zf, c.sf), nil)
		var jump bool
		switch in.op {
		case isa.JZ:
			jump = c.zf
		case isa.JNZ:
			jump = !c.zf
		case isa.JL:
			jump = c.sf
		case isa.JGE:
			jump = !c.sf
		}
		if len(c.opts.InvertBranches) > 0 && c.invertBranch(pc) {
			jump = !jump
		}
		if jump {
			next = in.target
			taken = true
		}

	case isa.CALL:
		if err := c.push(uint32(pc+1), taint.Set{}); err != nil {
			return err
		}
		c.callStack = append(c.callStack, pc+1)
		next = in.target

	case isa.RET:
		v, _, err := c.pop()
		if err != nil {
			return err
		}
		if len(c.callStack) == 0 {
			return fmt.Errorf("emu: ret with empty call stack at pc %d", pc)
		}
		c.callStack = c.callStack[:len(c.callStack)-1]
		next = int(v)

	case isa.CALLAPI:
		seq, err := c.callAPI(pc, in)
		if err != nil {
			return err
		}
		apiSeq = seq

	case isa.CALLAPIR:
		// Indirect call: the destination register holds an address the
		// loader issued (GetProcAddress result or an export-table walk).
		// An address outside the binding faults — there is nothing there
		// to execute.
		v, _, err := c.readOperand(in.dst)
		if err != nil {
			return err
		}
		api, ok := Loader().APIAt(v)
		if !ok {
			return fmt.Errorf("emu: callapir to unresolved address %#x at pc %d", v, pc)
		}
		seq, err := c.callAPINamed(pc, api, in.nArgs)
		if err != nil {
			return err
		}
		apiSeq = seq

	case isa.HALT:
		c.done = true
		c.exitKind = trace.ExitHalt

	default:
		return fmt.Errorf("emu: unknown opcode %v at pc %d", in.op, pc)
	}

	if c.opts.Profile {
		c.tr.Steps = append(c.tr.Steps, trace.Step{
			Index:  len(c.tr.Steps),
			PC:     pc,
			Instr:  c.prog.Instrs[pc],
			Reads:  c.claimAccesses(c.curReads),
			Writes: c.claimAccesses(c.curWrites),
			APISeq: apiSeq,
			Taken:  taken,
		})
	}
	c.pc = next
	return nil
}

// Step access records are carved from chunks of firstAccessChunk
// entries, doubling per chunk up to accessChunkSize. A short run (a few
// hundred accesses) clears and scans only what it uses.
const (
	firstAccessChunk = 256
	accessChunkSize  = 4096
)

// claimAccesses copies the staged per-step accesses into the CPU's
// access arena and returns a capacity-capped subslice. The seed code
// allocated two fresh slices per recorded step; the arena amortises
// that to one allocation per chunk. Chunks are never pooled — the
// returned subslices escape into the retained trace.
func (c *CPU) claimAccesses(src []trace.Access) []trace.Access {
	if len(src) == 0 {
		return nil
	}
	if len(c.accessArena)+len(src) > cap(c.accessArena) {
		n := max(min(2*cap(c.accessArena), accessChunkSize), firstAccessChunk, len(src))
		c.accessArena = make([]trace.Access, 0, n)
	}
	start := len(c.accessArena)
	c.accessArena = append(c.accessArena, src...)
	return c.accessArena[start:len(c.accessArena):len(c.accessArena)]
}

// invertBranch reports whether forced execution inverts the branch at
// this PC.
func (c *CPU) invertBranch(pc int) bool {
	for _, p := range c.opts.InvertBranches {
		if p == pc {
			return true
		}
	}
	return false
}

// setFlags updates ZF/SF from a result value with the given taint.
func (c *CPU) setFlags(v uint32, t taint.Set) {
	c.zf = v == 0
	c.sf = int32(v) < 0
	c.flagsTaint = t
	c.noteWrite(trace.FlagsLoc(), flagBits(c.zf, c.sf), nil)
}

// flagBits packs flags into a value for trace records.
func flagBits(zf, sf bool) uint32 {
	var v uint32
	if zf {
		v |= 1
	}
	if sf {
		v |= 2
	}
	return v
}

// effectiveAddr computes a memory operand's address and the taint of the
// address computation (from the base register). The symbol displacement
// was folded into o.val at predecode.
func (c *CPU) effectiveAddr(o dOperand) (uint32, taint.Set, error) {
	if o.kind != isa.KindMem {
		return 0, taint.Set{}, fmt.Errorf("emu: effectiveAddr on %v operand", o.kind)
	}
	addr := o.val
	var t taint.Set
	if o.hasBase {
		addr += c.reg[o.reg]
		t = c.regTaint[o.reg]
		c.noteRead(trace.RegLoc(o.reg), c.reg[o.reg], nil)
	}
	return addr, t, nil
}

// readOperand reads a 32-bit operand value with taint, recording the
// access.
func (c *CPU) readOperand(o dOperand) (uint32, taint.Set, error) {
	switch o.kind {
	case isa.KindReg:
		c.noteRead(trace.RegLoc(o.reg), c.reg[o.reg], nil)
		return c.reg[o.reg], c.regTaint[o.reg], nil
	case isa.KindImm:
		return o.val, taint.Set{}, nil
	case isa.KindMem:
		addr := o.val
		var at taint.Set
		if o.hasBase {
			addr += c.reg[o.reg]
			at = c.regTaint[o.reg]
			c.noteRead(trace.RegLoc(o.reg), c.reg[o.reg], nil)
		}
		v, t, err := c.mem.readWord(addr)
		if err != nil {
			return 0, taint.Set{}, err
		}
		c.noteRead(trace.MemLoc(addr, 4), v, nil)
		return v, t.Union(at), nil
	default:
		return 0, taint.Set{}, fmt.Errorf("emu: read of %v operand", o.kind)
	}
}

// readOperandByte reads an 8-bit operand value with taint.
func (c *CPU) readOperandByte(o dOperand) (uint32, taint.Set, error) {
	switch o.kind {
	case isa.KindReg:
		c.noteRead(trace.RegLoc(o.reg), c.reg[o.reg], nil)
		return c.reg[o.reg] & 0xFF, c.regTaint[o.reg], nil
	case isa.KindImm:
		return o.val & 0xFF, taint.Set{}, nil
	case isa.KindMem:
		addr, at, err := c.effectiveAddr(o)
		if err != nil {
			return 0, taint.Set{}, err
		}
		b, t, err := c.mem.readByte(addr)
		if err != nil {
			return 0, taint.Set{}, err
		}
		c.noteRead(trace.MemLoc(addr, 1), uint32(b), nil)
		return uint32(b), t.Union(at), nil
	default:
		return 0, taint.Set{}, fmt.Errorf("emu: byte read of %v operand", o.kind)
	}
}

// writeOperand writes a 32-bit value with taint, recording the access.
func (c *CPU) writeOperand(o dOperand, v uint32, t taint.Set) error {
	switch o.kind {
	case isa.KindReg:
		c.reg[o.reg] = v
		c.regTaint[o.reg] = t
		c.noteWrite(trace.RegLoc(o.reg), v, nil)
		return nil
	case isa.KindMem:
		addr, _, err := c.effectiveAddr(o)
		if err != nil {
			return err
		}
		if err := c.mem.writeWord(addr, v, t); err != nil {
			return err
		}
		c.noteWrite(trace.MemLoc(addr, 4), v, nil)
		return nil
	default:
		return fmt.Errorf("emu: write to %v operand", o.kind)
	}
}

// writeOperandByte writes an 8-bit value with taint.
func (c *CPU) writeOperandByte(o dOperand, v uint32, t taint.Set) error {
	switch o.kind {
	case isa.KindReg:
		c.reg[o.reg] = (c.reg[o.reg] &^ 0xFF) | (v & 0xFF)
		c.regTaint[o.reg] = c.regTaint[o.reg].Union(t)
		c.noteWrite(trace.RegLoc(o.reg), c.reg[o.reg], nil)
		return nil
	case isa.KindMem:
		addr, _, err := c.effectiveAddr(o)
		if err != nil {
			return err
		}
		if err := c.mem.writeByte(addr, byte(v), t); err != nil {
			return err
		}
		c.noteWrite(trace.MemLoc(addr, 1), v&0xFF, nil)
		return nil
	default:
		return fmt.Errorf("emu: byte write to %v operand", o.kind)
	}
}

// push writes a word below ESP.
func (c *CPU) push(v uint32, t taint.Set) error {
	c.reg[isa.ESP] -= 4
	if err := c.mem.writeWord(c.reg[isa.ESP], v, t); err != nil {
		return err
	}
	c.noteWrite(trace.MemLoc(c.reg[isa.ESP], 4), v, nil)
	return nil
}

// pop reads the word at ESP and releases it.
func (c *CPU) pop() (uint32, taint.Set, error) {
	v, t, err := c.mem.readWord(c.reg[isa.ESP])
	if err != nil {
		return 0, taint.Set{}, err
	}
	c.noteRead(trace.MemLoc(c.reg[isa.ESP], 4), v, nil)
	c.reg[isa.ESP] += 4
	return v, t, nil
}
