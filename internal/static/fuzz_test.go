package static_test

import (
	"encoding/json"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/static"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// extractRealSlice runs a synthetic algorithm-deterministic sample and
// extracts its identifier-regeneration slice, exactly as Phase-II does.
func extractRealSlice(tb testing.TB) *determinism.Slice {
	tb.Helper()
	spec := &malware.Spec{Name: "fuzz-algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}}
	prog := malware.MustEmit(spec)
	reg := winapi.Standard()
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: 42, Profile: true, Registry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	calls := tr.CallsTo("CreateMutexA")
	if len(calls) == 0 {
		tb.Fatal("sample produced no CreateMutexA call")
	}
	sl, err := determinism.Extract(prog, tr, calls[0].Seq)
	if err != nil {
		tb.Fatal(err)
	}
	return sl
}

// TestVerifySliceAcceptsExtractedSlice pins the fuzz seeds' validity:
// a genuine Phase-II slice must pass the verifier unchanged.
func TestVerifySliceAcceptsExtractedSlice(t *testing.T) {
	sl := extractRealSlice(t)
	if err := static.VerifySlice(sl.Program, sl.ResultAddr, nil); err != nil {
		t.Fatalf("genuine extracted slice rejected: %v", err)
	}
}

// FuzzSliceVerifier feeds mutated slice programs to the verifier. The
// verifier fronts fleet distribution, so arbitrary (attacker-shaped)
// input must produce a verdict, never a panic or a hang.
func FuzzSliceVerifier(f *testing.F) {
	sl := extractRealSlice(f)
	seed, err := json.Marshal(sl.Program)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, sl.ResultAddr)

	// A hand-built valid slice as a second seed shape.
	b := isa.NewBuilder("seed2")
	b.Buf("out", 16)
	b.Mov(isa.R(isa.EAX), isa.Imm('Z')).
		Movb(isa.MemSym("out"), isa.R(isa.EAX)).
		Halt()
	if p2, err := b.Build(); err == nil {
		if raw, err := json.Marshal(p2); err == nil {
			f.Add(raw, emu.Layout(p2).Symbols["out"])
		}
	}
	// Degenerate shapes.
	f.Add([]byte(`{}`), uint32(0))
	f.Add([]byte(`{"Name":"x","Instrs":[{"Op":255}]}`), uint32(0xFFFFFFFF))

	f.Fuzz(func(t *testing.T, raw []byte, resultAddr uint32) {
		var p isa.Program
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Skip()
		}
		// Any verdict is fine; a panic is the only failure.
		_ = static.VerifySlice(&p, resultAddr, nil)
	})
}

// FuzzAPISurface feeds mutated programs to the Phase-0 surface
// recovery. Triage fronts every corpus run, so arbitrary program
// shapes must produce a surface or an error, never a panic or a hang
// (the pass has an explicit iteration bailout); whatever comes back
// must be self-consistent (a non-⊤ surface contains exactly its listed
// APIs); and it must be sound against the emulator: a non-⊤ surface
// contains every API a run of the program calls.
func FuzzAPISurface(f *testing.F) {
	// Seed with a real hash-resolving program (the CALLAPIR-heavy
	// shape) and a direct-call family sample.
	g := malware.NewGenerator(1)
	if hr, err := g.HashResolveCorpus(1); err == nil {
		for _, s := range hr {
			if raw, err := json.Marshal(s.Program); err == nil {
				f.Add(raw)
			}
		}
	}
	if s, err := g.FamilySample(malware.Zeus); err == nil {
		if raw, err := json.Marshal(s.Program); err == nil {
			f.Add(raw)
		}
	}
	// Degenerate shapes.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Name":"x","Instrs":[{"Op":255}]}`))
	// A call through a constant ESP (the pop case of
	// TestSurfaceAgreesWithEmulator).
	if raw, err := json.Marshal(surfaceProgram(f, popProbe(exportRow(f, "CreateMutexA")))); err == nil {
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var p isa.Program
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Skip()
		}
		surf, err := static.RecoverAPISurface(&p)
		if err != nil || surf == nil {
			return
		}
		if surf.Top {
			if !surf.Contains("AnyNameAtAll") {
				t.Fatal("⊤ surface rejected an API")
			}
			return
		}
		for _, api := range surf.APIs {
			if !surf.Contains(api) {
				t.Fatalf("surface lists %s but Contains rejects it", api)
			}
		}
		tr, err := emu.Run(&p, winenv.New(winenv.DefaultIdentity()),
			emu.Options{Seed: 1, MaxSteps: 20_000})
		if err != nil {
			t.Skip()
		}
		for _, c := range tr.Calls {
			if !surf.Contains(c.API) {
				t.Fatalf("run called %s at pc %d; the surface %v omits it", c.API, c.CallerPC, surf.APIs)
			}
		}
	})
}
