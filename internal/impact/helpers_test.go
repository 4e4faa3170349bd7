package impact

import (
	"reflect"
	"testing"

	"autovac/internal/alignment"
	"autovac/internal/trace"
)

func TestFlipEffectsClassification(t *testing.T) {
	flip := func(api, kind, ident string, argStr string) alignment.Flip {
		nat := trace.APICall{API: api, ResourceKind: kind, Identifier: ident, Success: true}
		if argStr != "" {
			nat.Args = []trace.ArgValue{{Str: argStr, Static: true}}
		}
		mut := nat
		mut.Success = false
		return alignment.Flip{Mutated: mut, Natural: nat}
	}
	cases := []struct {
		name string
		f    alignment.Flip
		want Effect
	}{
		{"sys file", flip("CreateFileA", "file", `C:\d\x.SYS`, ""), TypeI},
		{"create service with sys binary", flip("CreateServiceA", "service", "drv", `C:\d\x.sys`), TypeI},
		{"plain service", flip("CreateServiceA", "service", "svc", `C:\bin\x.exe`), TypeIII},
		{"start service", flip("StartServiceA", "service", "svc", ""), TypeIII},
		{"run value", flip("RegSetValueExA", "registry", `HKLM\...\Run\evil`, ""), TypeIII},
		{"winlogon", flip("RegSetValueExA", "registry", `HKLM\...\Winlogon\Shell`, ""), TypeIII},
		{"system ini", flip("WriteFile", "file", `C:\Windows\system.ini`, ""), TypeIII},
		{"wpm", flip("WriteProcessMemory", "process", "explorer.exe", ""), TypeIV},
		{"remote thread", flip("CreateRemoteThread", "process", "svchost.exe", ""), TypeIV},
		{"connect", flip("connect", "", "", ""), TypeII},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := flipEffects([]alignment.Flip{tc.f})
			if len(got) != 1 || got[0] != tc.want {
				t.Errorf("flipEffects = %v, want [%v]", got, tc.want)
			}
		})
	}

	// A success gained (failure -> success) is not a frustrated op.
	gained := alignment.Flip{
		Mutated: trace.APICall{API: "connect", Success: true},
		Natural: trace.APICall{API: "connect", Success: false},
	}
	if got := flipEffects([]alignment.Flip{gained}); len(got) != 0 {
		t.Errorf("gained success classified: %v", got)
	}

	// Unrelated flips classify as nothing.
	other := flip("ReadFile", "file", `C:\data\notes.txt`, "")
	if got := flipEffects([]alignment.Flip{other}); len(got) != 0 {
		t.Errorf("benign flip classified: %v", got)
	}
}

func TestArgsMention(t *testing.T) {
	c := trace.APICall{Args: []trace.ArgValue{
		{Raw: 1}, {Str: `C:\Windows\system32\DRIVER\x.SYS`},
	}}
	if !argsMention(c, ".sys") {
		t.Error("argsMention missed case-insensitive match")
	}
	if argsMention(c, ".dll") {
		t.Error("argsMention false positive")
	}
}

func TestSortEffects(t *testing.T) {
	es := []Effect{TypeIV, Full, TypeII}
	sortEffects(es)
	if es[0] != Full || es[1] != TypeII || es[2] != TypeIV {
		t.Errorf("sorted = %v", es)
	}
}

func TestHasKernelEvidence(t *testing.T) {
	if hasKernelEvidence([]trace.APICall{{API: "OpenSCManagerA"}}) {
		t.Error("OpenSCManager alone counted as kernel evidence")
	}
	if !hasKernelEvidence([]trace.APICall{{API: "CreateServiceA"}}) {
		t.Error("CreateService not counted")
	}
	if !hasKernelEvidence([]trace.APICall{{ResourceKind: "file", Identifier: `C:\d\a.sys`, API: "CreateFileA"}}) {
		t.Error(".sys file op not counted")
	}
}

func TestLostProcessInjectionVariants(t *testing.T) {
	if !lostProcessInjection([]trace.APICall{{API: "CreateProcessA", Identifier: `C:\mal\x.exe`}}) {
		t.Error("lost component start not detected")
	}
	if lostProcessInjection([]trace.APICall{{API: "OpenProcessByNameA", Identifier: "randomapp.exe"}}) {
		t.Error("non-victim open counted")
	}
	if !lostProcessInjection([]trace.APICall{{API: "WriteProcessMemory", Identifier: ""}}) {
		t.Error("WPM with unresolved victim not counted")
	}
}

func TestClassifyWithGreedyOption(t *testing.T) {
	natural := &trace.Trace{Calls: []trace.APICall{
		{API: "OpenMutexA", CallerPC: 1, Identifier: "m", ResourceKind: "mutex"},
		{API: "connect", CallerPC: 5},
	}, Exit: trace.ExitHalt}
	mutated := &trace.Trace{Calls: []trace.APICall{
		{API: "OpenMutexA", CallerPC: 1, Identifier: "m", ResourceKind: "mutex"},
		{API: "ExitProcess", CallerPC: 9},
	}, Exit: trace.ExitProcess}
	for _, opts := range []Options{{}, {Greedy: true}, {DisableFlips: true}} {
		r := ClassifyWith(mutated, natural, opts)
		if r.Primary != Full {
			t.Errorf("opts %+v: primary = %v", opts, r.Primary)
		}
	}
	keyed := ClassifyKeyed(mutated, natural, alignment.KeysOf(natural.Calls))
	if want := Classify(mutated, natural); !reflect.DeepEqual(keyed, want) {
		t.Errorf("ClassifyKeyed = %+v, Classify = %+v", keyed, want)
	}
}
