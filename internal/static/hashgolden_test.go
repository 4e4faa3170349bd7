package static_test

import (
	"slices"
	"testing"

	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/static"
)

// emitHashChain emits the in-line loader-hash computation the
// hash-resolving malware bands use — the same rol5/xor decomposition
// internal/malware emits — leaving the hash in EDX.
func emitHashChain(b *isa.Builder, name string) {
	b.Mov(isa.R(isa.EDX), isa.Imm(0x811C9DC5))
	for i := 0; i < len(name); i++ {
		b.Mov(isa.R(isa.ECX), isa.R(isa.EDX))
		b.Shl(isa.R(isa.EDX), isa.Imm(5))
		b.Shr(isa.R(isa.ECX), isa.Imm(27))
		b.Or(isa.R(isa.EDX), isa.R(isa.ECX))
		b.Xor(isa.R(isa.EDX), isa.Imm(uint32(name[i])))
	}
}

// loaderHashAPIs are the hashed names both golden tests resolve; all
// four are kernel32.dll exports in the loader image.
var loaderHashAPIs = []string{
	"CreateMutexA",
	"OpenMutexA",
	"GetTickCount",
	"GetFileAttributesA",
}

// TestConstPropRecoversLoaderHashes checks BuildConstProp against the
// runtime: constant propagation over the emitted rol/xor chain must
// recover exactly the value emu.LoaderHash computes — the value in the
// loader image's export rows. It pins const-prop's transfer functions
// and the alu arithmetic they share with Phase-0 triage (a changed
// basis, a different rotate decomposition, a SHL/SHR/OR/XOR bug).
// Triage itself folds constants in its own domain (apisurface.go), so
// TestSurfaceResolvesComputedHashCall checks the same chains through
// RecoverAPISurface.
func TestConstPropRecoversLoaderHashes(t *testing.T) {
	names := append(slices.Clone(loaderHashAPIs), "A") // "A": one rotate round
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b := isa.NewBuilder("hash-golden")
			emitHashChain(b, name)
			b.Halt()
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := static.BuildCFG(prog)
			if err != nil {
				t.Fatal(err)
			}
			cp := static.BuildConstProp(cfg)
			halt := len(prog.Instrs) - 1
			got, ok := cp.ConstAt(halt, isa.EDX)
			if !ok {
				t.Fatalf("EDX not constant at the end of the chain")
			}
			if want := emu.LoaderHash(name); got != want {
				t.Errorf("static hash %#x, runtime emu.LoaderHash = %#x", got, want)
			}
		})
	}
}

// TestSurfaceResolvesComputedHashCall runs the whole idiom through the
// Phase-0 pass on hand-built programs: compute the hash in-line, walk
// the kernel32 export table, call through the matched row's address.
// For each hashed API the recovered surface must name exactly that API
// (plus nothing), proving the pass connects its own constant folding,
// the loader image, and the hash-match branch refinement end to end.
func TestSurfaceResolvesComputedHashCall(t *testing.T) {
	k32 := emu.Loader().Module("kernel32.dll")
	if k32 == nil {
		t.Fatal("loader image missing kernel32.dll")
	}
	for _, api := range loaderHashAPIs {
		t.Run(api, func(t *testing.T) {
			b := isa.NewBuilder("surface-idiom")
			emitHashChain(b, api)
			b.Mov(isa.R(isa.ESI), isa.Imm(k32.TableAddr))
			b.Label("scan")
			b.Mov(isa.R(isa.EAX), isa.Mem(isa.ESI, 0))
			b.Cmp(isa.R(isa.EAX), isa.R(isa.EDX))
			b.Jz("found")
			b.Add(isa.R(isa.ESI), isa.Imm(8))
			b.Cmp(isa.R(isa.ESI), isa.Imm(k32.TableEnd))
			b.Jl("scan")
			b.Halt()
			b.Label("found")
			b.Mov(isa.R(isa.EBX), isa.Mem(isa.ESI, 4))
			b.CallAPIR(isa.EBX)
			b.Halt()
			prog, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			surf, err := static.RecoverAPISurface(prog)
			if err != nil {
				t.Fatal(err)
			}
			if surf.Top {
				t.Fatal("surface degraded to ⊤ on the canonical idiom")
			}
			if len(surf.APIs) != 1 || surf.APIs[0] != api {
				t.Errorf("surface = %v, want exactly [%s]", surf.APIs, api)
			}
		})
	}
}
