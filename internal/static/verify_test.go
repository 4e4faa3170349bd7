package static_test

import (
	"errors"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/static"
)

// goodSlice builds a minimal well-formed replay slice: straight-line,
// deterministic, writing the identifier bytes into a data buffer. It
// returns the program and a mapped result address inside that buffer.
func goodSlice(t *testing.T) (*isa.Program, uint32) {
	t.Helper()
	b := isa.NewBuilder("good-slice")
	out := b.Buf("out", 16)
	b.Mov(isa.R(isa.EAX), isa.Imm('A')).
		Movb(isa.MemSym(out), isa.R(isa.EAX)).
		Movb(isa.MemAbs(0), isa.R(isa.EBX)). // patched below to out+1
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	li := emu.Layout(p)
	addr := li.Symbols[out]
	p.Instrs[2].Dst = isa.MemAbs(addr + 1)
	return p, addr
}

func wantRule(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verifier accepted a slice that must fail rule %q", rule)
	}
	var se *static.SliceError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *SliceError: %v", err)
	}
	if se.Rule != rule {
		t.Fatalf("rule = %q, want %q (err: %v)", se.Rule, rule, err)
	}
}

func TestVerifySliceAcceptsWellFormedSlice(t *testing.T) {
	p, addr := goodSlice(t)
	if err := static.VerifySlice(p, addr, nil); err != nil {
		t.Fatalf("well-formed slice rejected: %v", err)
	}
}

func TestVerifySliceAcceptsAllowedAPIs(t *testing.T) {
	// Semantic data sources and string helpers are exactly what real
	// extracted slices contain.
	b := isa.NewBuilder("api-slice")
	buf := b.Buf("name", 32)
	b.CallAPI("GetComputerNameA", isa.Sym(buf), isa.Imm(32))
	b.CallAPI("lstrlenA", isa.Sym(buf))
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	li := emu.Layout(p)
	if err := static.VerifySlice(p, li.Symbols[buf], nil); err != nil {
		t.Fatalf("slice with allowed APIs rejected: %v", err)
	}
}

func TestVerifySliceRejections(t *testing.T) {
	tests := []struct {
		name string
		rule string
		run  func(t *testing.T) error
	}{
		{
			name: "nil program",
			rule: static.RuleStructure,
			run: func(t *testing.T) error {
				return static.VerifySlice(nil, 0, nil)
			},
		},
		{
			name: "structurally invalid program",
			rule: static.RuleStructure,
			run: func(t *testing.T) error {
				p := &isa.Program{Name: "bad", Instrs: []isa.Instr{
					{Op: isa.JMP, Target: "nowhere"},
				}}
				return static.VerifySlice(p, 0, nil)
			},
		},
		{
			name: "unmapped result address",
			rule: static.RuleResultAddr,
			run: func(t *testing.T) error {
				p, _ := goodSlice(t)
				return static.VerifySlice(p, 0x1234, nil)
			},
		},
		{
			name: "backward jump could loop forever",
			rule: static.RuleControlFlow,
			run: func(t *testing.T) error {
				b := isa.NewBuilder("loopy")
				b.Label("top").Inc(isa.R(isa.EAX)).Jmp("top").Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				li := emu.Layout(p)
				return static.VerifySlice(p, li.Segments[0].Base, nil)
			},
		},
		{
			name: "ret without matching call",
			rule: static.RuleStackBal,
			run: func(t *testing.T) error {
				p, addr := goodSlice(t)
				p.Instrs[len(p.Instrs)-1] = isa.Instr{Op: isa.RET}
				return static.VerifySlice(p, addr, nil)
			},
		},
		{
			name: "unknown API",
			rule: static.RuleAPIAllow,
			run: func(t *testing.T) error {
				b := isa.NewBuilder("unknown-api")
				out := b.Buf("out", 8)
				b.CallAPI("TotallyMadeUpA").Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				li := emu.Layout(p)
				return static.VerifySlice(p, li.Symbols[out], nil)
			},
		},
		{
			name: "resource API has side effects",
			rule: static.RuleAPIAllow,
			run: func(t *testing.T) error {
				b := isa.NewBuilder("resource-api")
				mu := b.RData("mu", `Global\X`)
				b.CallAPI("CreateMutexA", isa.Sym(mu)).Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				li := emu.Layout(p)
				return static.VerifySlice(p, li.Symbols[mu], nil)
			},
		},
		{
			name: "random-class API is not replayable",
			rule: static.RuleAPIAllow,
			run: func(t *testing.T) error {
				b := isa.NewBuilder("random-api")
				out := b.Buf("out", 8)
				b.CallAPI("GetTickCount").Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				li := emu.Layout(p)
				return static.VerifySlice(p, li.Symbols[out], nil)
			},
		},
		{
			name: "termination API",
			rule: static.RuleAPIAllow,
			run: func(t *testing.T) error {
				b := isa.NewBuilder("term-api")
				out := b.Buf("out", 8)
				b.CallAPI("ExitProcess", isa.Imm(0)).Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				li := emu.Layout(p)
				return static.VerifySlice(p, li.Symbols[out], nil)
			},
		},
		{
			name: "read of unmapped absolute address",
			rule: static.RuleMemBounds,
			run: func(t *testing.T) error {
				p, addr := goodSlice(t)
				p.Instrs[0] = isa.Instr{Op: isa.MOV,
					Dst: isa.R(isa.EAX), Src: isa.MemAbs(0xDEAD0000)}
				return static.VerifySlice(p, addr, nil)
			},
		},
		{
			name: "write to read-only data",
			rule: static.RuleMemBounds,
			run: func(t *testing.T) error {
				b := isa.NewBuilder("ro-write")
				s := b.RData("s", "const")
				b.Mov(isa.MemSym(s), isa.Imm(7)).Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				li := emu.Layout(p)
				return static.VerifySlice(p, li.Symbols[s], nil)
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantRule(t, tt.run(t), tt.rule)
		})
	}
}

func TestVerifySliceAcceptsBalancedCall(t *testing.T) {
	// A forward CALL with a matching RET balances; the verifier must
	// not reject legitimate helper-call shapes.
	b := isa.NewBuilder("call-balanced")
	out := b.Buf("out", 8)
	b.Call("helper").
		Halt().
		Label("helper").Mov(isa.R(isa.EAX), isa.Imm(1)).
		Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	li := emu.Layout(p)
	if err := static.VerifySlice(p, li.Symbols[out], nil); err != nil {
		t.Fatalf("balanced forward call rejected: %v", err)
	}
}

// TestVerifySliceStackWalk pins the stack-balance walk with a known
// ESP. The walk starts at emu.StackTop, and the stack segment ends 16
// bytes above it, so four POPs from entry fit and a fifth reads past
// the segment.
func TestVerifySliceStackWalk(t *testing.T) {
	tests := []struct {
		name     string
		prologue func(b *isa.Builder, arg isa.Operand)
		pops     int
		rule     string // "" accepts
	}{
		{name: "four pops from entry", pops: 4},
		{name: "a fifth pop leaves the segment", pops: 5, rule: static.RuleStackBal},
		{
			name:     "a leading push allows five pops",
			prologue: func(b *isa.Builder, _ isa.Operand) { b.Push(isa.Imm(0)) },
			pops:     5,
		},
		{
			name:     "a leading push allows no sixth pop",
			prologue: func(b *isa.Builder, _ isa.Operand) { b.Push(isa.Imm(0)) },
			pops:     6,
			rule:     static.RuleStackBal,
		},
		{
			name:     "a one-argument callapi is net zero",
			prologue: func(b *isa.Builder, arg isa.Operand) { b.CallAPI("lstrlenA", arg) },
			pops:     5,
			rule:     static.RuleStackBal,
		},
		{
			// CALL is a branch: the walk forgets ESP, so no POP after it
			// can be checked.
			name: "call and ret reset the walk",
			prologue: func(b *isa.Builder, _ isa.Operand) {
				b.Call("helper").Jmp("body").Label("helper").Ret().Label("body")
			},
			pops: 6,
		},
		{
			// RET pops its return address: from StackTop+8 one POP
			// still fits, a second does not.
			name: "ret pops the return address",
			prologue: func(b *isa.Builder, _ isa.Operand) {
				b.Call("helper").Halt().
					Label("helper").Mov(isa.R(isa.ESP), isa.Imm(emu.StackTop+8)).Ret()
			},
			pops: 2,
			rule: static.RuleStackBal,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := isa.NewBuilder("stack-walk")
			out := b.Buf("out", 8)
			if tt.prologue != nil {
				tt.prologue(b, isa.Sym(out))
			}
			for i := 0; i < tt.pops; i++ {
				b.Pop(isa.R(isa.EAX))
			}
			p, err := b.Halt().Build()
			if err != nil {
				t.Fatal(err)
			}
			err = static.VerifySlice(p, emu.Layout(p).Symbols[out], nil)
			if tt.rule == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			wantRule(t, err, tt.rule)
		})
	}
}
