// Package trace defines the execution-trace records AUTOVAC's analyses
// consume: API-call logs with precise calling context (name, caller-PC,
// arguments, call stack — paper §III "Output from Phase-I"), and
// instruction-level steps with read/write access sets used by backward
// taint tracking and program slicing (§IV-C).
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"autovac/internal/isa"
	"autovac/internal/taint"
)

// ArgValue is one logged API argument.
type ArgValue struct {
	// Raw is the 32-bit argument value as passed.
	Raw uint32
	// Str is the resolved string when the argument is a pointer to a
	// string the API consumed (empty otherwise).
	Str string `json:",omitempty"`
	// Static marks arguments whose values are comparable across
	// executions (identifiers, constants); handles and buffer pointers
	// are dynamic and excluded from alignment comparison (§IV-B).
	Static bool
	// Tainted reports whether the argument carried taint on entry.
	Tainted bool `json:",omitempty"`
}

// ExitReason tells how an execution ended.
type ExitReason int

// Exit reasons.
const (
	// ExitHalt is a normal HALT (the program ran to completion).
	ExitHalt ExitReason = iota
	// ExitProcess is a self-termination through ExitProcess/
	// TerminateProcess/ExitThread.
	ExitProcess
	// ExitLimit means the step budget was exhausted (the analogue of the
	// paper's 1-minute execution threshold).
	ExitLimit
	// ExitFault is an execution error (bad memory access, stack
	// underflow, unknown API) — the malware "crashed".
	ExitFault
)

// String names the exit reason.
func (r ExitReason) String() string {
	switch r {
	case ExitHalt:
		return "halt"
	case ExitProcess:
		return "exit-process"
	case ExitLimit:
		return "step-limit"
	case ExitFault:
		return "fault"
	default:
		return fmt.Sprintf("exit(%d)", int(r))
	}
}

// APICall is one logged API invocation with its calling context.
// The triple <Name, CallerPC, static parameters> is the alignment key of
// the differential analysis (Algorithm 1).
type APICall struct {
	// Seq is the dynamic occurrence index within the run.
	Seq int
	// API is the API name.
	API string
	// CallerPC is the program counter of the CALLAPI instruction.
	CallerPC int
	// CallStack holds the return PCs of active intra-program calls,
	// innermost last.
	CallStack []int `json:",omitempty"`
	// Args are the logged arguments.
	Args []ArgValue `json:",omitempty"`
	// Ret is the value returned in EAX.
	Ret uint32
	// LastError is the GetLastError value after the call.
	LastError uint32
	// Success is the API-specific success predicate applied to Ret.
	Success bool
	// ResourceKind, Identifier, and Op describe the resource access for
	// labelled APIs (empty otherwise).
	ResourceKind string `json:",omitempty"`
	Identifier   string `json:",omitempty"`
	Op           string `json:",omitempty"`
	// TaintSources lists the taint labels introduced by this call.
	TaintSources []taint.Source `json:",omitempty"`
	// IdentifierTaint holds the per-byte taint labels of the identifier
	// string as observed at call time — the input to the per-byte
	// provenance classification of determinism analysis (§IV-C). It is
	// read-only: untainted identifiers share one all-nil backing
	// (capped, so an append copies).
	IdentifierTaint [][]taint.Source `json:",omitempty"`
	// Mutated marks calls whose result was forced by impact analysis.
	Mutated bool `json:",omitempty"`
}

// PredicateHit records a comparison instruction whose operands carried
// taint — the signal that flags a sample as "possibly has a vaccine"
// (paper §III-B).
type PredicateHit struct {
	// PC is the program counter of the predicate instruction.
	PC int
	// Sources are the taint labels reaching the predicate.
	Sources []taint.Source
}

// LocKind distinguishes storage locations in access records.
type LocKind uint8

// Location kinds.
const (
	// LocReg is a general-purpose register.
	LocReg LocKind = iota
	// LocMem is a memory range.
	LocMem
	// LocFlags is the flags register.
	LocFlags
)

// Loc is a storage location (register, memory range, or flags).
type Loc struct {
	Kind LocKind
	// Reg is the register for LocReg.
	Reg uint8 `json:",omitempty"`
	// Addr and Size delimit the range for LocMem.
	Addr uint32 `json:",omitempty"`
	Size uint32 `json:",omitempty"`
}

// RegLoc returns a register location.
func RegLoc(r isa.Reg) Loc { return Loc{Kind: LocReg, Reg: uint8(r)} }

// MemLoc returns a memory-range location.
func MemLoc(addr, size uint32) Loc { return Loc{Kind: LocMem, Addr: addr, Size: size} }

// FlagsLoc returns the flags location.
func FlagsLoc() Loc { return Loc{Kind: LocFlags} }

// Overlaps reports whether two locations denote overlapping storage.
func (l Loc) Overlaps(o Loc) bool {
	if l.Kind != o.Kind {
		return false
	}
	switch l.Kind {
	case LocReg:
		return l.Reg == o.Reg
	case LocFlags:
		return true
	case LocMem:
		return l.Addr < o.Addr+o.Size && o.Addr < l.Addr+l.Size
	}
	return false
}

// String renders the location.
func (l Loc) String() string {
	switch l.Kind {
	case LocReg:
		return isa.Reg(l.Reg).String()
	case LocFlags:
		return "flags"
	case LocMem:
		return fmt.Sprintf("[0x%x..0x%x]", l.Addr, l.Addr+l.Size)
	default:
		return "?"
	}
}

// Access is one read or write in a step.
type Access struct {
	Loc Loc
	// Value is the 32-bit value read/written (for memory ranges wider
	// than 4 bytes, the first word; Bytes carries the full range when
	// relevant).
	Value uint32
	// Bytes optionally carries the full byte range for wide accesses
	// (API string reads/writes).
	Bytes []byte `json:",omitempty"`
}

// Step is one executed instruction with its dynamic access sets. Steps
// are recorded only when instruction-level tracing is enabled (it is the
// offline log backward slicing runs on).
type Step struct {
	// Index is the position in the dynamic trace.
	Index int
	// PC is the instruction's program counter.
	PC int
	// Instr is the executed instruction.
	Instr isa.Instr
	// Reads and Writes are the observed accesses.
	Reads  []Access `json:",omitempty"`
	Writes []Access `json:",omitempty"`
	// APISeq links a CALLAPI step to its APICall record (-1 otherwise).
	APISeq int
	// Taken marks whether a conditional jump was taken.
	Taken bool `json:",omitempty"`
}

// Trace is the full record of one execution.
type Trace struct {
	// Program is the executed program's name.
	Program string
	// Mutated marks impact-analysis runs with a forced API result.
	Mutated bool `json:",omitempty"`
	// Calls is the API-call log.
	Calls []APICall
	// Steps is the instruction-level log (nil unless enabled).
	Steps []Step `json:",omitempty"`
	// Predicates lists tainted predicate hits.
	Predicates []PredicateHit `json:",omitempty"`
	// Exit describes how execution ended.
	Exit ExitReason
	// ExitCode is the code passed to ExitProcess (0 otherwise).
	ExitCode uint32 `json:",omitempty"`
	// StepCount is the number of instructions executed.
	StepCount int
	// Fault holds the fault message for ExitFault.
	Fault string `json:",omitempty"`
	// Sources is the run's taint-source table, making the trace
	// self-contained for offline analysis.
	Sources []taint.SourceInfo `json:",omitempty"`
}

// HasTaintedPredicate reports whether any comparison consumed tainted
// data — AUTOVAC's Phase-I filter for "possibly has a vaccine".
func (t *Trace) HasTaintedPredicate() bool { return len(t.Predicates) > 0 }

// CallsTo returns the API-call records for the named API.
func (t *Trace) CallsTo(api string) []APICall {
	var out []APICall
	for _, c := range t.Calls {
		if c.API == api {
			out = append(out, c)
		}
	}
	return out
}

// ResourceCalls returns the calls that touched a labelled resource.
func (t *Trace) ResourceCalls() []APICall {
	var out []APICall
	for _, c := range t.Calls {
		if c.ResourceKind != "" {
			out = append(out, c)
		}
	}
	return out
}

// NativeCallCount returns the number of API calls in the trace. It is
// the N in the paper's Behavior Decreasing Ratio, BDR = (Nn-Nd)/Nn.
func (t *Trace) NativeCallCount() int { return len(t.Calls) }

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &t, nil
}

// OpStat is an aggregate count of resource accesses, bucketed by
// resource kind and operation — the data behind the paper's Figure 3.
type OpStat struct {
	ResourceKind string
	Op           string
	Count        int
}

// ResourceOpStats buckets the trace's resource calls by kind and
// operation, in deterministic order.
func (t *Trace) ResourceOpStats() []OpStat {
	type key struct{ kind, op string }
	counts := make(map[key]int)
	var order []key
	for _, c := range t.Calls {
		if c.ResourceKind == "" {
			continue
		}
		k := key{c.ResourceKind, c.Op}
		if _, ok := counts[k]; !ok {
			order = append(order, k)
		}
		counts[k]++
	}
	out := make([]OpStat, 0, len(order))
	for _, k := range order {
		out = append(out, OpStat{ResourceKind: k.kind, Op: k.op, Count: counts[k]})
	}
	return out
}
