// Package static is the binary-level static analysis layer over the isa
// IR. Where the rest of the reproduction is dynamic (taint tracking,
// predicate detection, and backward slicing over emulated traces, paper
// §III–IV), this package answers questions about a program from its
// text alone, in the style of static system-call-identification work
// (B-Side et al., see PAPERS.md):
//
//   - CFG construction (basic blocks, successors, reverse postorder)
//     and reaching definitions / def-use chains over registers, flags,
//     and symbolic memory operands (cfg.go, defuse.go);
//   - API-surface recovery, the Phase-0 triage pass and the
//     pipeline's one static admission gate: a forward dataflow over an
//     abstract domain that folds constants, tracks ESP, and reads the
//     loader image, resolving which APIs a program can call, including
//     through computed addresses (apisurface.go). Its transfer is the
//     package's one constant folder;
//   - a static backward slice over-approximating the dynamic slices of
//     determinism analysis, used to cross-check soundness (slice.go);
//   - a slice verifier rejecting non-replayable extracted slices
//     before they are packed and distributed to end hosts; it resolves
//     addresses with the surface pass's transfer (verify.go).
//
// Every analysis here is a MAY (over-approximating) analysis: whatever
// the dynamic pipeline observes is contained in what the static pass
// admits. The soundness tests pin that relation on the whole synthetic
// corpus.
package static

import (
	"fmt"
	"sort"

	"autovac/internal/isa"
)

// Block is one basic block: a maximal straight-line run of
// instructions [Start, End) entered only at Start.
type Block struct {
	// ID is the block's index in CFG.Blocks.
	ID int
	// Start and End delimit the instruction range [Start, End).
	Start, End int
	// Succs and Preds are CFG edges, as block IDs, in ascending order.
	Succs, Preds []int
}

// CFG is the control-flow graph of one program.
//
// Interprocedural flow is over-approximated: a CALL has both its
// target and its textual successor as CFG successors, and a RET's
// successors are the return points of every CALL in the program. This
// keeps every analysis built on the CFG a whole-program MAY analysis
// without needing call-stack sensitivity.
type CFG struct {
	// Prog is the analysed program.
	Prog *isa.Program
	// Blocks lists the basic blocks in instruction order.
	Blocks []*Block
	// BlockOf maps each instruction index to its block ID.
	BlockOf []int
	// RPO is a reverse postorder over the blocks reachable from entry.
	RPO []int
	// Reachable marks blocks reachable from the entry block.
	Reachable []bool
}

// BuildCFG partitions the program into basic blocks and links them.
// The program must validate (callers holding a Builder-built Program
// already do); an invalid program returns an error rather than a
// malformed graph.
//
// The partition itself comes from isa.Program.BlockSpans: a span there
// is a Block here.
func BuildCFG(p *isa.Program) (*CFG, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("static: %w", err)
	}
	n := len(p.Instrs)
	if n == 0 {
		return &CFG{Prog: p, BlockOf: []int{}}, nil
	}
	labels := p.Labels()

	// Return points of every CALL, reused for RET edges.
	var callReturns []int
	for i, in := range p.Instrs {
		if in.Op == isa.CALL && i+1 < n {
			callReturns = append(callReturns, i+1)
		}
	}

	cfg := &CFG{Prog: p, BlockOf: make([]int, n)}
	for _, sp := range p.BlockSpans() {
		b := &Block{ID: len(cfg.Blocks), Start: sp.Start, End: sp.End}
		cfg.Blocks = append(cfg.Blocks, b)
		for i := sp.Start; i < sp.End; i++ {
			cfg.BlockOf[i] = b.ID
		}
	}

	// Edges.
	addEdge := func(from, to int) {
		b := cfg.Blocks[from]
		for _, s := range b.Succs {
			if s == to {
				return
			}
		}
		b.Succs = append(b.Succs, to)
		cfg.Blocks[to].Preds = append(cfg.Blocks[to].Preds, from)
	}
	for _, b := range cfg.Blocks {
		last := p.Instrs[b.End-1]
		switch {
		case last.Op == isa.JMP:
			addEdge(b.ID, cfg.BlockOf[labels[last.Target]])
		case last.Op.IsJump(): // conditional: taken + fallthrough
			addEdge(b.ID, cfg.BlockOf[labels[last.Target]])
			if b.End < n {
				addEdge(b.ID, cfg.BlockOf[b.End])
			}
		case last.Op == isa.CALL:
			addEdge(b.ID, cfg.BlockOf[labels[last.Target]])
			if b.End < n {
				addEdge(b.ID, cfg.BlockOf[b.End])
			}
		case last.Op == isa.RET:
			for _, r := range callReturns {
				addEdge(b.ID, cfg.BlockOf[r])
			}
		case last.Op == isa.HALT:
			// No successors.
		default:
			if b.End < n {
				addEdge(b.ID, cfg.BlockOf[b.End])
			}
		}
	}
	for _, b := range cfg.Blocks {
		sort.Ints(b.Succs)
		sort.Ints(b.Preds)
	}

	// Reverse postorder over the reachable subgraph (iterative DFS with
	// an explicit successor cursor, so deep programs cannot overflow the
	// goroutine stack).
	cfg.Reachable = make([]bool, len(cfg.Blocks))
	post := make([]int, 0, len(cfg.Blocks))
	type frame struct{ block, next int }
	stack := []frame{{0, 0}}
	cfg.Reachable[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := cfg.Blocks[f.block].Succs
		if f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if !cfg.Reachable[s] {
				cfg.Reachable[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.block)
		stack = stack[:len(stack)-1]
	}
	cfg.RPO = make([]int, len(post))
	for i, b := range post {
		cfg.RPO[len(post)-1-i] = b
	}
	return cfg, nil
}

// NumBlocks returns the block count.
func (c *CFG) NumBlocks() int { return len(c.Blocks) }

// String renders the graph compactly, one block per line, for golden
// tests and debugging.
func (c *CFG) String() string {
	s := ""
	for _, b := range c.Blocks {
		s += fmt.Sprintf("b%d [%d,%d)", b.ID, b.Start, b.End)
		if len(b.Succs) > 0 {
			s += fmt.Sprintf(" -> %v", b.Succs)
		}
		if !c.Reachable[b.ID] {
			s += " (unreachable)"
		}
		s += "\n"
	}
	return s
}
