package static_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"autovac/internal/isa"
	"autovac/internal/static"
)

// chainsFor renders the def-use chains as one sorted line each, the
// golden-test representation.
func chainsFor(t *testing.T, p *isa.Program) []string {
	t.Helper()
	cfg, err := static.BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	du := static.BuildDefUse(cfg)
	var out []string
	for _, c := range du.Chains() {
		out = append(out, c.String())
	}
	sort.Strings(out)
	return out
}

func TestDefUseGolden(t *testing.T) {
	tests := []struct {
		name  string
		build func(t *testing.T) *isa.Program
		want  []string
	}{
		{
			name: "straight line",
			// 0: mov eax,1 / 1: mov ebx,eax / 2: add eax,ebx / 3: halt
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("line")
				b.Mov(isa.R(isa.EAX), isa.Imm(1)).
					Mov(isa.R(isa.EBX), isa.R(isa.EAX)).
					Add(isa.R(isa.EAX), isa.R(isa.EBX)).
					Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: []string{
				"0->1 eax",
				"0->2 eax",
				"1->2 ebx",
			},
		},
		{
			name: "both branch defs reach the join use",
			// The diamond writes ebx on both arms; the use after the
			// join sees both definitions.
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("join-use")
				b.Cmp(isa.R(isa.EAX), isa.Imm(0)). // 0
									Jz("else").                      // 1
									Mov(isa.R(isa.EBX), isa.Imm(1)). // 2
									Jmp("join").                     // 3
									Label("else").
									Mov(isa.R(isa.EBX), isa.Imm(2)). // 4
									Label("join").
									Add(isa.R(isa.ECX), isa.R(isa.EBX)). // 5
									Halt()                               // 6
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: []string{
				"0->1 flags", // cmp feeds the jz
				"2->5 ebx",
				"4->5 ebx",
			},
		},
		{
			name: "strong update kills the earlier def",
			// 0: mov eax,1 / 1: mov eax,2 / 2: mov ebx,eax / 3: halt —
			// only the second def reaches the use.
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("kill")
				b.Mov(isa.R(isa.EAX), isa.Imm(1)).
					Mov(isa.R(isa.EAX), isa.Imm(2)).
					Mov(isa.R(isa.EBX), isa.R(isa.EAX)).
					Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: []string{
				"1->2 eax",
			},
		},
		{
			name: "movb is a weak register def",
			// A byte write into a register keeps the upper 24 bits, so
			// the earlier full def still reaches the use — and the MOVB
			// itself both uses and defines the register.
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("movb")
				b.Mov(isa.R(isa.EAX), isa.Imm(0x11223344)).
					Movb(isa.R(isa.EAX), isa.Imm(0x55)).
					Mov(isa.R(isa.EBX), isa.R(isa.EAX)).
					Halt()
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: []string{
				"0->1 eax", // movb reads the register it partially writes
				"0->2 eax", // ...and does not kill the full def
				"1->2 eax",
			},
		},
		{
			name: "loop-carried def reaches its own use",
			// 0: mov ecx,3 / 1: loop: dec ecx / 2: jnz loop / 3: halt —
			// dec's def flows around the back edge into itself.
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("loop-du")
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
			want: []string{
				"0->1 ecx",
				"1->1 ecx",
				"1->2 flags",
			},
		},
		{
			name: "memory defs are weak and alias symbols",
			// A write through a register base could hit any data item,
			// so both it and the direct symbolic store reach the load;
			// chains carry the use-site location, so the aliasing def
			// appears under the symbol it may have clobbered.
			build: func(t *testing.T) *isa.Program {
				b := isa.NewBuilder("mem")
				b.Buf("slot", 8)
				b.Mov(isa.MemSym("slot"), isa.Imm(1)). // 0: direct store
									Mov(isa.Mem(isa.EDI, 0), isa.Imm(2)).    // 1: aliasing store
									Mov(isa.R(isa.EAX), isa.MemSym("slot")). // 2: load
									Halt()                                   // 3
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			want: []string{
				"0->2 [slot]",
				"1->2 [slot]",
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := chainsFor(t, tt.build(t))
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("chains mismatch\ngot:  %s\nwant: %s",
					strings.Join(got, ", "), strings.Join(tt.want, ", "))
			}
		})
	}
}

func TestBackwardSliceDropsIrrelevantDefs(t *testing.T) {
	// 0: mov eax,7 / 1: mov ebx,eax / 2: mov ecx,99 / 3: add ebx,1 / 4: halt
	b := isa.NewBuilder("bslice")
	b.Mov(isa.R(isa.EAX), isa.Imm(7)).
		Mov(isa.R(isa.EBX), isa.R(isa.EAX)).
		Mov(isa.R(isa.ECX), isa.Imm(99)).
		Add(isa.R(isa.EBX), isa.Imm(1)).
		Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := static.BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	du := static.BuildDefUse(cfg)
	got := du.BackwardSlice(3)
	want := map[int]bool{0: true, 1: true, 3: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BackwardSlice(3) = %v, want %v", got, want)
	}
}
