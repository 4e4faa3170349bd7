package emu

import (
	"fmt"

	"autovac/internal/isa"
	"autovac/internal/taint"
	"autovac/internal/trace"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// callAPI executes one CALLAPI instruction.
func (c *CPU) callAPI(pc int, in *dInstr) (int, error) {
	return c.callAPINamed(pc, in.api, in.nArgs)
}

// callAPINamed executes one API call — direct (CALLAPI) or resolved
// from a register (CALLAPIR, whose dispatcher looks the name up via the
// loader's address→API binding before landing here): argument
// collection from the stack, identifier resolution (direct or via the
// handle map), taint source allocation, mutation (impact analysis),
// implementation dispatch, taint application per the API's label, call
// logging with calling context, and the stdcall argument pop. It
// returns the APICall's sequence number. Both call forms share this
// path, so a hash-resolved call is observed, tainted, and mutable
// exactly like a direct one.
func (c *CPU) callAPINamed(pc int, api string, nArgs int) (int, error) {
	spec, ok := c.registry.Lookup(api)
	if !ok {
		return -1, fmt.Errorf("emu: unknown API %q at pc %d", api, pc)
	}
	if spec.NArgs != winapi.Variadic && spec.NArgs != nArgs {
		return -1, fmt.Errorf("emu: %s expects %d args, call site passes %d (pc %d)",
			api, spec.NArgs, nArgs, pc)
	}

	// Collect stack arguments ([esp] is the first) into the CPU's
	// buffer: no implementation retains its args.
	args := c.argBuf[:0]
	esp := c.reg[isa.ESP]
	for i := 0; i < nArgs; i++ {
		addr := esp + uint32(4*i)
		v, t, err := c.mem.readWord(addr)
		if err != nil {
			return -1, err
		}
		c.noteRead(trace.MemLoc(addr, 4), v, nil)
		args = append(args, winapi.Arg{Value: v, Taint: t})
	}
	c.argBuf = args

	label := spec.Label

	// Resolve the resource identifier before dispatch so mutations can
	// match on it.
	identifier := ""
	var identAddr uint32
	identInMemory := false
	if label.Resource.Valid() && label.IdentifierArg >= 0 && label.IdentifierArg < len(args) {
		if label.IdentifierViaHandle {
			if _, name, ok := c.env.HandleName(winenv.Handle(args[label.IdentifierArg].Value)); ok {
				identifier = name
				// Registry value APIs address "<key>\<value>".
				if label.ValueNameArg > 0 && label.ValueNameArg < len(args) {
					if vn, _, err := c.ReadCString(args[label.ValueNameArg].Value); err == nil {
						identifier = name + `\` + vn
					}
				}
			}
		} else {
			s, _, err := c.ReadCString(args[label.IdentifierArg].Value)
			if err != nil {
				return -1, err
			}
			identifier = s
			identAddr = args[label.IdentifierArg].Value
			identInMemory = true
		}
	}

	// The call log (and, when profiling, the source table) starts sized
	// for one call per call site, or takes a recycled log's storage; a
	// run that makes no call keeps a nil log.
	if c.tr.Calls == nil {
		if cap(c.spareCalls) > 0 {
			c.tr.Calls, c.spareCalls = c.spareCalls[:0], nil
		} else {
			c.tr.Calls = make([]trace.APICall, 0, c.apiSites)
		}
		if c.opts.Profile {
			c.table.Grow(c.apiSites)
		}
	}

	// Allocate the taint label for source APIs. Only a profiling run
	// labels anything: without a label no taint ever exists, so the run
	// has nothing to record in the source table.
	hasSource := c.opts.Profile && (label.Resource.Valid() || label.Class != winapi.ClassNone)
	var src taint.Set
	var srcID taint.Source
	if hasSource {
		srcID = c.table.Reserve()
		src = taint.Of(srcID)
	}

	// Dispatch, or force the result when a mutation matches.
	var out winapi.Outcome
	mutated := false
	if mu := c.findMutation(api, pc, identifier); mu != nil {
		mutated = true
		out = c.applyMutation(label, *mu, args, src)
	} else {
		var err error
		out, err = spec.Impl(c, args, src)
		if err != nil {
			return -1, err
		}
	}

	op := label.Op
	if out.OpOverride.Valid() {
		op = out.OpOverride
	}
	if out.Identifier != "" {
		identifier = out.Identifier
		identInMemory = false
	}
	if hasSource {
		info := taint.SourceInfo{
			API:      api,
			CallerPC: pc,
			Seq:      c.apiSeq,
			Success:  out.Success,
			Class:    label.Class.String(),
		}
		if label.Resource.Valid() {
			info.ResourceKind = label.Resource.String()
			info.Identifier = identifier
			info.Op = op.String()
		}
		c.table.Fill(srcID, info)
	}

	// Return value and its taint. TaintArg APIs (RegOpenKeyEx-style)
	// taint both the out-argument (done by the implementation) and the
	// status in EAX: callers branch on either.
	retTaint := out.RetTaint
	if hasSource && label.Taint != winapi.TaintNone {
		retTaint = retTaint.Union(src)
	}
	if api == "GetLastError" {
		// The error code's provenance is the call that set it, so
		// error-handling branches register as tainted predicates.
		retTaint = retTaint.Union(c.lastErrTaint)
	}
	c.reg[isa.EAX] = out.Ret
	c.regTaint[isa.EAX] = retTaint
	c.noteWrite(trace.RegLoc(isa.EAX), out.Ret, nil)

	// Failure provenance for subsequent GetLastError reads.
	if label.Resource.Valid() {
		c.lastErrTaint = src
	}

	// Build the call record with calling context.
	call := trace.APICall{
		Seq:       c.apiSeq,
		API:       api,
		CallerPC:  pc,
		CallStack: append([]int(nil), c.callStack...),
		Ret:       out.Ret,
		LastError: uint32(c.env.LastError()),
		Success:   out.Success,
		Mutated:   mutated,
	}
	if label.Resource.Valid() {
		call.ResourceKind = label.Resource.String()
		call.Identifier = identifier
		call.Op = op.String()
	}
	if hasSource {
		call.TaintSources = []taint.Source{srcID}
	}
	call.Args = c.logArgs(label, args)
	if identInMemory && !mutated && c.opts.Profile {
		call.IdentifierTaint = c.mem.byteSources(identAddr, uint32(len(identifier)))
	}
	c.tr.Calls = append(c.tr.Calls, call)
	seq := c.apiSeq
	c.apiSeq++

	// stdcall: the callee pops its arguments.
	c.reg[isa.ESP] = esp + uint32(4*nArgs)

	// Self-termination.
	if out.Exit != winapi.ExitNone {
		c.done = true
		c.exitKind = trace.ExitProcess
		c.exitCode = out.ExitCode
	}
	return seq, nil
}

// logArgs renders the argument list for the call record, resolving
// string arguments and marking the statically comparable ones.
func (c *CPU) logArgs(label winapi.Label, args []winapi.Arg) []trace.ArgValue {
	if len(args) == 0 {
		return nil
	}
	out := make([]trace.ArgValue, len(args))
	for i, a := range args {
		out[i] = trace.ArgValue{Raw: a.Value, Tainted: !a.Taint.Empty()}
	}
	for _, i := range label.StaticArgs {
		if i >= 0 && i < len(out) {
			out[i].Static = true
		}
	}
	for _, i := range label.StrArgs {
		if i >= 0 && i < len(out) {
			if s, _, err := c.mem.readCString(out[i].Raw); err == nil {
				out[i].Str = s
			}
		}
	}
	return out
}

// findMutation returns the first mutation matching this call occurrence.
func (c *CPU) findMutation(api string, callerPC int, identifier string) *Mutation {
	for i := range c.opts.Mutations {
		if c.opts.Mutations[i].matches(api, callerPC, identifier) {
			return &c.opts.Mutations[i]
		}
	}
	return nil
}

// applyMutation produces the forced outcome for a matched call without
// performing the API's side effects — the paper's controlled-environment
// re-run that "mutates the return value or involved arguments" (§IV-B).
func (c *CPU) applyMutation(label winapi.Label, mu Mutation, args []winapi.Arg, src taint.Set) winapi.Outcome {
	switch mu.Mode {
	case ForceSuccess, ForceAlreadyExists:
		if mu.Mode == ForceAlreadyExists {
			c.env.SetLastError(winenv.ErrAlreadyExists)
		} else {
			c.env.SetLastError(winenv.ErrSuccess)
		}
		if label.Taint == winapi.TaintArg &&
			label.TaintArgIndex >= 0 && label.TaintArgIndex < len(args) {
			// Plant a plausible handle in the out-argument.
			_ = c.WriteWord(args[label.TaintArgIndex].Value, 0x00DD0008, src)
		}
		return winapi.Outcome{Ret: label.SuccessRet, Success: true}
	default: // ForceFailure
		c.env.SetLastError(label.FailureErr)
		return winapi.Outcome{Ret: label.FailureRet, Success: false}
	}
}
