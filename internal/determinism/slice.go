package determinism

import (
	"fmt"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/trace"
	"autovac/internal/winenv"
)

// Slice is an executable backward program slice that regenerates a
// resource identifier (§IV-C: "we apply the existing backward program
// slicing techniques to extract an independent, executable program
// slice"). Replaying it on an end host computes that host's identifier
// value, which is how algorithm-deterministic vaccines deploy (§V).
type Slice struct {
	// Program is the replayable straight-line slice: the dynamic
	// instructions that contributed to the identifier, in execution
	// order, over the original program's data segment.
	Program *isa.Program
	// ResultAddr is the address the identifier string occupies after
	// replay (data layout is deterministic, so the original address is
	// valid in the replayed slice).
	ResultAddr uint32
	// API is the candidate API the identifier was observed at.
	API string
	// SourceSteps counts the instructions included in the slice.
	SourceSteps int
	// PCs lists the original-program pcs of the included steps, in
	// slice order; CriterionPC is the candidate call's pc. Together
	// they tie the dynamic slice back to the program text, which is
	// what the static-analysis soundness cross-check compares against.
	PCs         []int `json:",omitempty"`
	CriterionPC int   `json:",omitempty"`
}

// Extract performs backward data slicing over an instruction-level
// trace, starting from the identifier bytes consumed by the API call
// with the given sequence number.
//
// The walk maintains a worklist of storage locations; a step that wrote
// any wanted location joins the slice, its writes kill the covered
// ranges, and its reads become wanted — except reads of read-only data
// (static terminals, the left branch of the paper's Figure 2). API-call
// steps join as units, so a slice containing _snprintf drags in its
// argument pushes and, transitively, GetComputerNameA.
func Extract(prog *isa.Program, tr *trace.Trace, seq int) (*Slice, error) {
	if len(tr.Steps) == 0 {
		return nil, fmt.Errorf("determinism: trace of %s has no instruction steps (Profile off?)", tr.Program)
	}
	// Locate the candidate call's step and record.
	callIdx := -1
	for i, s := range tr.Steps {
		if s.APISeq == seq {
			callIdx = i
			break
		}
	}
	if callIdx < 0 {
		return nil, fmt.Errorf("determinism: no step for API seq %d", seq)
	}
	var call *trace.APICall
	for i := range tr.Calls {
		if tr.Calls[i].Seq == seq {
			call = &tr.Calls[i]
			break
		}
	}
	if call == nil || call.Identifier == "" {
		return nil, fmt.Errorf("determinism: API seq %d has no identifier", seq)
	}

	// Find the identifier-string read in the call step.
	var resultAddr uint32
	found := false
	for _, r := range tr.Steps[callIdx].Reads {
		if r.Loc.Kind == trace.LocMem && string(r.Bytes) == call.Identifier {
			resultAddr = r.Loc.Addr
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("determinism: identifier %q not among call reads", call.Identifier)
	}

	// Backward walk.
	want := []trace.Loc{trace.MemLoc(resultAddr, uint32(len(call.Identifier))+1)}
	included := make([]bool, callIdx)
	for j := callIdx - 1; j >= 0 && len(want) > 0; j-- {
		step := tr.Steps[j]
		hit := false
		for _, w := range step.Writes {
			if w.Loc.Kind == trace.LocFlags {
				continue
			}
			if overlapsAny(w.Loc, want) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		included[j] = true
		// Kill the written ranges, then demand the read ranges.
		for _, w := range step.Writes {
			if w.Loc.Kind == trace.LocFlags {
				continue
			}
			want = subtract(want, w.Loc)
		}
		for _, r := range step.Reads {
			if r.Loc.Kind == trace.LocFlags {
				continue
			}
			if r.Loc.Kind == trace.LocMem && readOnlyAddr(r.Loc.Addr) {
				continue // static terminal (.rdata)
			}
			want = append(want, r.Loc)
		}
	}

	// Assemble the straight-line slice program.
	b := isa.NewBuilder(fmt.Sprintf("%s-slice-%d", prog.Name, seq))
	for _, d := range prog.Data {
		if d.ReadOnly {
			b.RBytes(d.Name, append([]byte(nil), d.Data...))
		} else {
			b.DataBytes(d.Name, append([]byte(nil), d.Data...))
		}
	}
	count := 0
	var pcs []int
	for j := 0; j < callIdx; j++ {
		if !included[j] {
			continue
		}
		in := tr.Steps[j].Instr
		in.Label = "" // dynamic steps may repeat static labels
		in.Comment = ""
		b.Raw(in)
		pcs = append(pcs, tr.Steps[j].PC)
		count++
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("determinism: assembling slice: %w", err)
	}
	return &Slice{
		Program:     p,
		ResultAddr:  resultAddr,
		API:         call.API,
		SourceSteps: count,
		PCs:         pcs,
		CriterionPC: tr.Steps[callIdx].PC,
	}, nil
}

// Replay executes the slice against an end host's environment and
// returns the regenerated identifier. The seed only drives APIs the
// slice should not contain (a slice with random dependencies would have
// been discarded as non-deterministic). The environment is snapshotted
// and rewound around the execution, so a replay leaves no side effects
// behind and one environment can serve many replays.
func (s *Slice) Replay(env *winenv.Env, seed uint64) (string, error) {
	snap := env.Snapshot()
	defer func() {
		env.Reset(snap)
		snap.Close()
	}()
	c, err := emu.New(s.Program, env, emu.Options{Seed: seed})
	if err != nil {
		return "", fmt.Errorf("determinism: replay setup: %w", err)
	}
	defer c.Release()
	tr := c.Execute()
	if tr.Exit == trace.ExitFault {
		return "", fmt.Errorf("determinism: slice replay faulted: %s", tr.Fault)
	}
	ident, _, err := c.ReadCString(s.ResultAddr)
	if err != nil {
		return "", fmt.Errorf("determinism: reading replayed identifier: %w", err)
	}
	if ident == "" {
		return "", fmt.Errorf("determinism: slice replay produced empty identifier")
	}
	return ident, nil
}

// overlapsAny reports whether loc overlaps any wanted location.
func overlapsAny(loc trace.Loc, want []trace.Loc) bool {
	for _, w := range want {
		if loc.Overlaps(w) {
			return true
		}
	}
	return false
}

// subtract removes the killed location from the worklist, keeping
// residual memory subranges.
func subtract(want []trace.Loc, kill trace.Loc) []trace.Loc {
	var out []trace.Loc
	for _, w := range want {
		if !w.Overlaps(kill) {
			out = append(out, w)
			continue
		}
		if w.Kind != trace.LocMem || kill.Kind != trace.LocMem {
			continue // registers/flags: fully killed
		}
		// Left residue.
		if w.Addr < kill.Addr {
			out = append(out, trace.MemLoc(w.Addr, kill.Addr-w.Addr))
		}
		// Right residue.
		wEnd, kEnd := w.Addr+w.Size, kill.Addr+kill.Size
		if wEnd > kEnd {
			out = append(out, trace.MemLoc(kEnd, wEnd-kEnd))
		}
	}
	return out
}

// readOnlyAddr reports whether an address lies in the read-only data
// window of the emulator's fixed layout.
func readOnlyAddr(addr uint32) bool {
	return addr >= emu.RDataBase && addr < emu.DataBase
}
