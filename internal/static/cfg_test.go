package static_test

import (
	"strings"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/static"
)

// diamond builds the canonical if/else shape:
//
//	0: cmp eax, 0
//	1: jz else
//	2: mov ebx, 1
//	3: jmp join
//	4: else: mov ebx, 2
//	5: join: halt
func diamond(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("diamond")
	b.Cmp(isa.R(isa.EAX), isa.Imm(0)).
		Jz("else").
		Mov(isa.R(isa.EBX), isa.Imm(1)).
		Jmp("join").
		Label("else").Mov(isa.R(isa.EBX), isa.Imm(2)).
		Label("join").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCFGGolden(t *testing.T) {
	tests := []struct {
		name  string
		build func(t *testing.T) *isa.Program
		want  string
	}{
		{
			name:  "diamond",
			build: diamond,
			want: `b0 [0,2) -> [1 2]
b1 [2,4) -> [3]
b2 [4,5) -> [3]
b3 [5,6)
`,
		},
		{
			name: "loop",
			// 0: mov ecx,3 / 1: loop: dec ecx / 2: jnz loop / 3: halt
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("loop")
				b.Mov(isa.R(isa.ECX), isa.Imm(3)).
					Label("loop").Dec(isa.R(isa.ECX)).
					Jnz("loop").
					Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: `b0 [0,1) -> [1]
b1 [1,3) -> [1 2]
b2 [3,4)
`,
		},
		{
			name: "unreachable block",
			// 0: jmp end / 1: mov eax,1 (dead) / 2: end: halt
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("dead")
				b.Jmp("end").
					Mov(isa.R(isa.EAX), isa.Imm(1)).
					Label("end").Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: `b0 [0,1) -> [2]
b1 [1,2) -> [2] (unreachable)
b2 [2,3)
`,
		},
		{
			name: "fallthrough into label",
			// 0: mov eax,1 / 1: tgt: inc eax / 2: cmp eax,5 / 3: jl tgt / 4: halt
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("fall")
				b.Mov(isa.R(isa.EAX), isa.Imm(1)).
					Label("tgt").Inc(isa.R(isa.EAX)).
					Cmp(isa.R(isa.EAX), isa.Imm(5)).
					Jl("tgt").
					Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: `b0 [0,1) -> [1]
b1 [1,4) -> [1 2]
b2 [4,5)
`,
		},
		{
			name: "call and ret over-approximation",
			// 0: call sub / 1: halt / 2: sub: ret
			// CALL flows to both the target and the fallthrough; RET
			// flows to every call-return point.
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("callret")
				b.Call("sub").
					Halt().
					Label("sub").Ret()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: `b0 [0,1) -> [1 2]
b1 [1,2)
b2 [2,3) -> [1]
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := static.BuildCFG(tt.build(t))
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.String(); got != tt.want {
				t.Errorf("CFG mismatch\ngot:\n%s\nwant:\n%s", got, tt.want)
			}
		})
	}
}

func TestCFGRejectsInvalidProgram(t *testing.T) {
	p := &isa.Program{Name: "bad", Instrs: []isa.Instr{{Op: isa.JMP, Target: "nowhere"}}}
	if _, err := static.BuildCFG(p); err == nil {
		t.Fatal("BuildCFG accepted a program with an unresolved jump target")
	}
}

func TestCFGStringMarksUnreachable(t *testing.T) {
	b := isa.NewBuilder("dead")
	b.Jmp("end").Nop().Label("end").Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := static.BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg.String(), "(unreachable)") {
		t.Errorf("String() does not mark the dead block:\n%s", cfg.String())
	}
}
