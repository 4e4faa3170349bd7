package static_test

import (
	"slices"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/static"
	"autovac/internal/trace"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// exportRow returns the address of api's row in kernel32's export
// table: the row's hash word, followed by its address word.
func exportRow(tb testing.TB, api string) uint32 {
	tb.Helper()
	k32 := emu.Loader().Module("kernel32.dll")
	if k32 == nil {
		tb.Fatal("loader image missing kernel32.dll")
	}
	for i, e := range k32.Exports {
		if e.Name == api {
			return k32.TableAddr + 8*uint32(i)
		}
	}
	tb.Fatalf("%s is not a kernel32 export", api)
	return 0
}

// surfaceProgram wraps emit, which calls through EBX, into a program
// with the string argument it passes.
func surfaceProgram(tb testing.TB, emit func(b *isa.Builder, arg isa.Operand)) *isa.Program {
	tb.Helper()
	b := isa.NewBuilder("surface-oracle")
	emit(b, isa.Sym(b.RData("name", "PROBE-MUTEX")))
	prog, err := b.Halt().Build()
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// popProbe calls CreateMutexA through a target read at a constant ESP
// parked on the API's export row:
//
//	mov edi, esp
//	mov esp, <CreateMutexA's export row>
//	pop eax            ; ESP is now on the row's address word
//	mov ebx, [esp]
//	mov esp, edi
//	callapir ebx("PROBE-MUTEX")
//
// Only a folder that moves ESP on POP sees the call.
func popProbe(row uint32) func(b *isa.Builder, arg isa.Operand) {
	return func(b *isa.Builder, arg isa.Operand) {
		b.Mov(isa.R(isa.EDI), isa.R(isa.ESP)).
			Mov(isa.R(isa.ESP), isa.Imm(row)).
			Pop(isa.R(isa.EAX)).
			Mov(isa.R(isa.EBX), isa.Mem(isa.ESP, 0)).
			Mov(isa.R(isa.ESP), isa.R(isa.EDI)).
			CallAPIR(isa.EBX, arg)
	}
}

// TestSurfaceAgreesWithEmulator runs hand-built programs through both
// the emulator and RecoverAPISurface. Each steers a CALLAPIR target
// onto an API's loader address through constant arithmetic, a branch,
// or a constant ESP, so the surface is right only where the pass
// computes what the emulator computes. The surface must equal the
// expected set and contain every API the run called.
func TestSurfaceAgreesWithEmulator(t *testing.T) {
	mutex := winapi.ProcAddr("CreateMutexA")
	// stack is a writable address inside the stack segment; at is the
	// displacement from ESP = esp that lands on CreateMutexA's address
	// word.
	const stack = emu.StackTop - 0x100
	row := exportRow(t, "CreateMutexA")
	at := func(esp uint32) int32 { return int32(row + 4 - esp) }

	tests := []struct {
		name string
		emit func(b *isa.Builder, arg isa.Operand)
		want []string
		top  bool
	}{
		{
			name: "sub wraps below zero",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EBX), isa.Imm(1)).
					Sub(isa.R(isa.EBX), isa.Imm(3)).
					Add(isa.R(isa.EBX), isa.Imm(mutex+2)).
					CallAPIR(isa.EBX, arg)
			},
			want: []string{"CreateMutexA"},
		},
		{
			name: "shift count masked by &31",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EBX), isa.Imm(mutex>>1)).
					Shl(isa.R(isa.EBX), isa.Imm(33)).
					CallAPIR(isa.EBX, arg)
			},
			want: []string{"CreateMutexA"},
		},
		{
			name: "xor self clears",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EBX), isa.Imm(0xDEAD)).
					Xor(isa.R(isa.EBX), isa.R(isa.EBX)).
					Add(isa.R(isa.EBX), isa.Imm(mutex)).
					CallAPIR(isa.EBX, arg)
			},
			want: []string{"CreateMutexA"},
		},
		{
			name: "movb merges the low byte",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EBX), isa.Imm(mutex^0xA5)).
					Mov(isa.R(isa.ECX), isa.Imm(0xABCD00|mutex&0xFF)).
					Movb(isa.R(isa.EBX), isa.R(isa.ECX)).
					CallAPIR(isa.EBX, arg)
			},
			want: []string{"CreateMutexA"},
		},
		{
			// The arms leave different targets. One constant cannot
			// hold both, so the meet gives up (⊤) and never keeps one.
			name: "branch arms meet",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.CallAPI("GetTickCount").
					Mov(isa.R(isa.EBX), isa.Imm(mutex)).
					Test(isa.R(isa.EAX), isa.Imm(1)).
					Jz("join").
					Mov(isa.R(isa.EBX), isa.Imm(winapi.ProcAddr("lstrlenA"))).
					Label("join").
					CallAPIR(isa.EBX, arg)
			},
			top: true,
		},
		{
			// `cmp esi, end; mov esi, edi; jl found`: the bound check
			// holds for the compared ESI, not for EDI's cursor, which
			// sits past kernel32's table, on advapi32's first row.
			name: "bound check on a redefined cursor",
			emit: func(b *isa.Builder, _ isa.Operand) {
				k32 := emu.Loader().Module("kernel32.dll")
				b.Mov(isa.R(isa.EDI), isa.Imm(k32.TableAddr)).
					Label("walk").
					Add(isa.R(isa.EDI), isa.Imm(8)).
					Cmp(isa.R(isa.EDI), isa.Imm(k32.TableEnd)).
					Jl("walk").
					CallAPI("GetTickCount").
					Mov(isa.R(isa.ESI), isa.Imm(k32.TableAddr)).
					Test(isa.R(isa.EAX), isa.Imm(1)).
					Jz("check").
					Mov(isa.R(isa.ESI), isa.Imm(k32.TableAddr+8)).
					Label("check").
					Cmp(isa.R(isa.ESI), isa.Imm(k32.TableEnd)).
					Mov(isa.R(isa.ESI), isa.R(isa.EDI)).
					Jl("found").
					Halt().
					Label("found").
					Mov(isa.R(isa.EBX), isa.Mem(isa.ESI, 4)).
					CallAPIR(isa.EBX, isa.Imm(0))
			},
			top: true,
		},
		{
			name: "pop moves a constant esp",
			emit: popProbe(row),
			want: []string{"CreateMutexA"},
		},
		{
			name: "push moves a constant esp",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EDI), isa.R(isa.ESP)).
					Mov(isa.R(isa.ESP), isa.Imm(stack)).
					Push(isa.Imm(0)).
					Mov(isa.R(isa.EBX), isa.Mem(isa.ESP, at(stack-4))).
					Mov(isa.R(isa.ESP), isa.R(isa.EDI)).
					CallAPIR(isa.EBX, arg)
			},
			want: []string{"CreateMutexA"},
		},
		{
			// The callee reads relative to the return address CALL
			// pushed. Its RET leaves the return point's ESP unknown
			// (the CFG's call fall-through edge meets it), so the call
			// goes through inside the callee.
			name: "call and ret move a constant esp",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EDI), isa.R(isa.ESP)).
					Mov(isa.R(isa.ESP), isa.Imm(stack)).
					Call("callee").
					Mov(isa.R(isa.ESP), isa.R(isa.EDI)).
					Halt().
					Label("callee").
					Mov(isa.R(isa.EBX), isa.Mem(isa.ESP, at(stack-4))).
					CallAPIR(isa.EBX, arg).
					Ret()
			},
			want: []string{"CreateMutexA"},
		},
		{
			name: "callapi pops its stdcall arguments",
			emit: func(b *isa.Builder, arg isa.Operand) {
				b.Mov(isa.R(isa.EDI), isa.R(isa.ESP)).
					Mov(isa.R(isa.ESP), isa.Imm(stack)).
					Push(isa.Imm(0)).
					CallAPI("lstrlenA", arg).
					Mov(isa.R(isa.EBX), isa.Mem(isa.ESP, at(stack-4))).
					Mov(isa.R(isa.ESP), isa.R(isa.EDI)).
					CallAPIR(isa.EBX, arg)
			},
			want: []string{"CreateMutexA", "lstrlenA"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			prog := surfaceProgram(t, tt.emit)
			tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()), emu.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Exit != trace.ExitHalt {
				t.Fatalf("run ended %v (%s), want a halt", tr.Exit, tr.Fault)
			}
			var called []string
			for _, c := range tr.Calls {
				called = append(called, c.API)
			}
			slices.Sort(called)
			if called = slices.Compact(called); !tt.top && !slices.Equal(called, tt.want) {
				t.Fatalf("run called %v, want %v", called, tt.want)
			}
			surf, err := static.RecoverAPISurface(prog)
			if err != nil {
				t.Fatal(err)
			}
			if surf.Top != tt.top || !tt.top && !slices.Equal(surf.APIs, tt.want) {
				t.Errorf("surface = %v (top %v), want %v (top %v)", surf.APIs, surf.Top, tt.want, tt.top)
			}
			for _, api := range called {
				if !surf.Contains(api) {
					t.Errorf("run called %s; the surface omits it", api)
				}
			}
		})
	}
}
