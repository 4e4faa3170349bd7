package emu

import (
	"autovac/internal/isa"
	"autovac/internal/taint"
	"autovac/internal/trace"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// MutationMode says how impact analysis forces an API result (§IV-B:
// "mutate the return value or involved arguments").
type MutationMode int

// Mutation modes.
const (
	// ForceFailure makes the matched call fail with the API's labelled
	// failure convention, without performing its side effects. It models
	// a vaccine that blocks access to a resource.
	ForceFailure MutationMode = iota
	// ForceSuccess makes the matched call succeed with a plausible
	// result, without performing its side effects. It models a vaccine
	// that simulates the presence of a resource (infection marker).
	ForceSuccess
	// ForceAlreadyExists makes a create-style call succeed while
	// reporting ERROR_ALREADY_EXISTS — the CreateMutex-style probe for
	// "this machine is already infected".
	ForceAlreadyExists
)

// String names the mode.
func (m MutationMode) String() string {
	switch m {
	case ForceSuccess:
		return "force-success"
	case ForceAlreadyExists:
		return "force-already-exists"
	default:
		return "force-failure"
	}
}

// Mutation selects API call occurrences whose results are forced.
type Mutation struct {
	// API is the API name to match.
	API string
	// CallerPC restricts the match to one call site (-1 matches any).
	CallerPC int
	// Identifier restricts the match to one resource identifier
	// (empty matches any). Comparison is case-insensitive, matching
	// Windows namespace semantics.
	Identifier string
	// Mode is the forcing direction.
	Mode MutationMode
}

// matches reports whether the mutation applies to a call occurrence.
func (mu Mutation) matches(api string, callerPC int, identifier string) bool {
	if mu.API != api {
		return false
	}
	if mu.CallerPC >= 0 && mu.CallerPC != callerPC {
		return false
	}
	if mu.Identifier != "" && !equalFold(mu.Identifier, identifier) {
		return false
	}
	return true
}

// equalFold is ASCII case-insensitive string equality.
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Options configures one execution.
type Options struct {
	// MaxSteps bounds the instruction count; 0 selects DefaultMaxSteps.
	// It is the analogue of the paper's per-sample execution budget
	// (1 minute in Phase-I, 5 minutes in the BDR evaluation).
	MaxSteps int
	// Profile records what Phase-I reads from its one profiling run:
	// taint labels with their provenance (Trace.Sources,
	// APICall.TaintSources and IdentifierTaint, ArgValue.Tainted,
	// Trace.Predicates) and the instruction-level log backward slicing
	// walks (Trace.Steps). Off, a run reserves no taint label, so every
	// taint operation takes its empty-set fast path; control flow, the
	// call log's other fields and the exit are the same either way.
	Profile bool
	// Seed drives the deterministic PRNG behind "random" APIs.
	Seed uint64
	// Registry is the API set; nil selects the shared winapi.Standard().
	Registry *winapi.Registry
	// Mutations are the forced API results for impact analysis.
	Mutations []Mutation
	// InvertBranches lists PCs of conditional jumps whose outcome is
	// inverted — the forced-execution technique the paper's §VIII
	// relates to (Wilhelm & Chiueh's forced sampled execution), focused
	// on resource-sensitive branches. It explores dormant paths (a
	// payload behind a failed library check) without changing the
	// environment.
	InvertBranches []int
}

// DefaultMaxSteps is the default instruction budget.
const DefaultMaxSteps = 200_000

// withDefaults fills the zero-valued budget and registry.
func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	if o.Registry == nil {
		o.Registry = winapi.Standard()
	}
	return o
}

// CPU is the machine state of one execution. It implements
// winapi.Machine.
type CPU struct {
	prog     *isa.Program
	code     []dInstr
	env      *winenv.Env
	registry *winapi.Registry
	opts     Options

	reg        [isa.NumRegs]uint32
	regTaint   [isa.NumRegs]taint.Set
	zf, sf     bool
	flagsTaint taint.Set
	pc         int
	mem        *memory
	symbols    map[string]uint32
	callStack  []int
	rngState   uint64

	table        taint.Table
	tr           *trace.Trace
	apiSeq       int
	lastErrTaint taint.Set
	// apiSites is the program's CALLAPI/CALLAPIR count, the initial
	// capacity of the call log and the source table.
	apiSites int
	// argBuf holds the current API call's arguments.
	argBuf []winapi.Arg
	// spareCalls is a recycled call log (Runner.Recycle): the run's
	// first call appends into it instead of allocating a new log.
	spareCalls []trace.APICall

	// Per-step access collection (active when profiling);
	// accessArena is the chunked backing store the per-step records
	// are carved from.
	curReads    []trace.Access
	curWrites   []trace.Access
	accessArena []trace.Access

	done     bool
	exitCode uint32
	exitKind trace.ExitReason
	fault    string
}

// New prepares an execution of prog against env. The environment is
// used in place (callers clone if they need isolation). The program's
// predecoded form is cached, so repeat executions of one program skip
// validation, symbol resolution, and data layout.
func New(prog *isa.Program, env *winenv.Env, opts Options) (*CPU, error) {
	d, err := decodedFor(prog)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	c := &CPU{
		prog:     prog,
		code:     d.instrs,
		env:      env,
		registry: opts.Registry,
		opts:     opts,
		mem:      newMemoryFrom(d),
		symbols:  d.symbols,
		apiSites: d.apiSites,
		tr: &trace.Trace{
			Program: prog.Name,
			Mutated: len(opts.Mutations) > 0,
		},
		rngState: opts.Seed ^ uint64(hashName(prog.Name))<<1 | 1,
	}
	c.reg[isa.ESP] = StackTop
	return c, nil
}

// resetFor rewinds the CPU to its freshly-constructed state under new
// options, reusing every buffer: the memory image (the written range
// restored, the tainted range of the shadows cleared), the pooled
// stack, the argument buffer, and the access arena's free tail. The
// caller is responsible for resetting the environment.
func (c *CPU) resetFor(opts Options) {
	opts = opts.withDefaults()
	c.registry = opts.Registry
	c.opts = opts
	c.reg = [isa.NumRegs]uint32{}
	c.regTaint = [isa.NumRegs]taint.Set{}
	c.zf, c.sf = false, false
	c.flagsTaint = taint.Set{}
	c.pc = 0
	c.callStack = c.callStack[:0]
	c.rngState = opts.Seed ^ uint64(hashName(c.prog.Name))<<1 | 1
	c.table.Reset()
	c.tr = &trace.Trace{
		Program: c.prog.Name,
		Mutated: len(opts.Mutations) > 0,
	}
	c.apiSeq = 0
	c.lastErrTaint = taint.Set{}
	c.curReads = c.curReads[:0]
	c.curWrites = c.curWrites[:0]
	c.done = false
	c.exitCode = 0
	c.exitKind = 0
	c.fault = ""
	c.mem.reset()
	c.reg[isa.ESP] = StackTop
}

// Release returns the CPU's pooled buffers (the stack segment). The CPU
// must not execute or access memory afterwards; traces already returned
// remain valid (they never alias emulator memory).
func (c *CPU) Release() {
	c.spareCalls = nil
	if c.mem != nil {
		c.mem.release()
		c.mem = nil
	}
}

// hashName is FNV-1a over the program name, mixed into the PRNG seed so
// distinct samples see distinct "random" sequences under one corpus seed.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Run executes a program to completion and returns its trace. It is the
// package's main entry point.
func Run(prog *isa.Program, env *winenv.Env, opts Options) (*trace.Trace, error) {
	c, err := New(prog, env, opts)
	if err != nil {
		return nil, err
	}
	tr := c.Execute()
	c.Release()
	return tr, nil
}

// Trace returns the trace being built.
func (c *CPU) Trace() *trace.Trace { return c.tr }

// SymbolAddr returns the load address of a data symbol.
func (c *CPU) SymbolAddr(name string) (uint32, bool) {
	a, ok := c.symbols[name]
	return a, ok
}

// Reg returns a register value (for tests and slice replay).
func (c *CPU) Reg(r isa.Reg) uint32 { return c.reg[r] }

// --- winapi.Machine implementation ---

// Env returns the resource environment.
func (c *CPU) Env() *winenv.Env { return c.env }

// Principal returns the program name.
func (c *CPU) Principal() string { return c.prog.Name }

// SelfPath returns the emulated image's own path.
func (c *CPU) SelfPath() string { return `C:\samples\` + c.prog.Name + `.exe` }

// Rand steps the deterministic xorshift PRNG.
func (c *CPU) Rand() uint32 {
	c.rngState ^= c.rngState << 13
	c.rngState ^= c.rngState >> 7
	c.rngState ^= c.rngState << 17
	return uint32(c.rngState >> 16)
}

// ReadCString reads a NUL-terminated string, recording the access.
func (c *CPU) ReadCString(addr uint32) (string, taint.Set, error) {
	s, t, err := c.mem.readCString(addr)
	if err != nil {
		return "", taint.Set{}, err
	}
	if c.opts.Profile {
		c.noteRead(trace.MemLoc(addr, uint32(len(s))+1), 0, []byte(s))
	}
	return s, t, nil
}

// WriteCString writes a string plus NUL, recording the access.
func (c *CPU) WriteCString(addr uint32, s string, t taint.Set) error {
	if err := c.mem.writeBytes(addr, append([]byte(s), 0), t); err != nil {
		return err
	}
	if c.opts.Profile {
		c.noteWrite(trace.MemLoc(addr, uint32(len(s))+1), 0, []byte(s))
	}
	return nil
}

// ReadWord reads a 32-bit word, recording the access.
func (c *CPU) ReadWord(addr uint32) (uint32, taint.Set, error) {
	v, t, err := c.mem.readWord(addr)
	if err != nil {
		return 0, taint.Set{}, err
	}
	c.noteRead(trace.MemLoc(addr, 4), v, nil)
	return v, t, nil
}

// WriteWord writes a 32-bit word, recording the access.
func (c *CPU) WriteWord(addr uint32, v uint32, t taint.Set) error {
	if err := c.mem.writeWord(addr, v, t); err != nil {
		return err
	}
	c.noteWrite(trace.MemLoc(addr, 4), v, nil)
	return nil
}

// ReadBytes reads a byte range, recording the access.
func (c *CPU) ReadBytes(addr, n uint32) ([]byte, taint.Set, error) {
	b, t, err := c.mem.readBytes(addr, n)
	if err != nil {
		return nil, taint.Set{}, err
	}
	c.noteRead(trace.MemLoc(addr, n), 0, b)
	return b, t, nil
}

// WriteBytes writes a byte range, recording the access.
func (c *CPU) WriteBytes(addr uint32, b []byte, t taint.Set) error {
	if err := c.mem.writeBytes(addr, b, t); err != nil {
		return err
	}
	if c.opts.Profile {
		c.noteWrite(trace.MemLoc(addr, uint32(len(b))), 0, append([]byte(nil), b...))
	}
	return nil
}

// noteRead appends to the current step's read set when recording.
func (c *CPU) noteRead(loc trace.Loc, v uint32, bytes []byte) {
	if c.opts.Profile {
		c.curReads = append(c.curReads, trace.Access{Loc: loc, Value: v, Bytes: bytes})
	}
}

// noteWrite appends to the current step's write set when recording.
func (c *CPU) noteWrite(loc trace.Loc, v uint32, bytes []byte) {
	if c.opts.Profile {
		c.curWrites = append(c.curWrites, trace.Access{Loc: loc, Value: v, Bytes: bytes})
	}
}

var _ winapi.Machine = (*CPU)(nil)
