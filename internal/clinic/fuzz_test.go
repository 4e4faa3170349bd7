package clinic

import (
	"reflect"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// FuzzSuiteMatchesReference installs one fuzzed static or pattern
// vaccine and requires Suite.Run, which reruns only the programs whose
// baseline read something the install changed, to agree with the
// fresh-host reference, which reruns them all. The suite includes the
// crafted host, whose lookups are not its logged identifiers.
func FuzzSuiteMatchesReference(f *testing.F) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		f.Fatal(err)
	}
	benign = append(benign[:10:10], craftedHost())
	cfg := Config{Seed: 3, Identity: winenv.DefaultIdentity()}
	s, err := NewSuite(benign, cfg)
	if err != nil {
		f.Fatal(err)
	}
	add := func(kind winenv.ResourceKind, pattern, block bool, ident string) {
		f.Add(uint8(kind-winenv.KindFile), pattern, block, ident)
	}
	for _, v := range craftedCases() {
		add(v.Resource, false, v.Polarity == vaccine.BlockAccess, v.Identifier)
	}
	for _, seed := range []struct {
		kind    winenv.ResourceKind
		pattern bool
		ident   string
	}{
		{winenv.KindMutex, false, "FirefoxSingletonMutex"},
		{winenv.KindMutex, false, "!VoqA.I4"},
		{winenv.KindFile, false, `C:\Users\alice\AppData\vlc\vlcrc`},
		{winenv.KindFile, false, `c:/users/alice/appdata/firefox/profiles.ini`},
		{winenv.KindRegistry, false, `HKCU\Software\Google\Chrome`},
		{winenv.KindWindow, false, "OpusApp"},
		{winenv.KindLibrary, false, "uxtheme.dll"},
		{winenv.KindLibrary, false, "plugin.dll"},
		{winenv.KindProcess, false, "crafthlp.exe"},
		{winenv.KindService, false, "EventLog"},
		{winenv.KindDomain, false, "update.videolan.example"},
		{winenv.KindDomain, false, "c2.evil.example"},
		{winenv.KindWindow, true, "Mozilla*"},
		{winenv.KindMutex, true, "WORMX-*"},
		{winenv.KindDomain, true, "update.*"},
	} {
		add(seed.kind, seed.pattern, false, seed.ident)
		add(seed.kind, seed.pattern, true, seed.ident)
	}
	f.Fuzz(func(t *testing.T, kind uint8, pattern, block bool, ident string) {
		class, pol := determinism.Static, vaccine.SimulatePresence
		if pattern {
			class = determinism.PartialStatic
		}
		if block {
			pol = vaccine.BlockAccess
		}
		k := winenv.KindFile + winenv.ResourceKind(kind%uint8(len(winenv.Kinds())))
		vs := []vaccine.Vaccine{clinicCase("fuzz", k, class, ident, pol)}
		ref, err := referenceRun(vs, benign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := summarize(s.Run(vs)), summarize(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s %s %q:\n got %+v\nwant %+v", k, class, pol, ident, got, want)
		}
	})
}
