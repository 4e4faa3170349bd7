package clinic

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"autovac/internal/alignment"
	"autovac/internal/deploy"
	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// referenceRun is the clinic without a Suite: a freshly prepared benign
// host for every baseline and every (vaccine, program) pair, and a full
// trace alignment for every comparison. Suite.Run must agree with it.
func referenceRun(vaccines []vaccine.Vaccine, benign []*malware.Sample, cfg Config) (*Report, error) {
	fresh := func() *winenv.Env {
		env := winenv.New(cfg.Identity)
		malware.PrepareBenignEnv(env)
		return env
	}
	opts := emu.Options{Seed: cfg.Seed, MaxSteps: cfg.MaxSteps}
	baselines := make([]*trace.Trace, len(benign))
	for i, b := range benign {
		tr, err := emu.Run(b.Program, fresh(), opts)
		if err != nil {
			return nil, err
		}
		baselines[i] = tr
	}
	testOne := func(v *vaccine.Vaccine) *Rejection {
		for i, b := range benign {
			env := fresh()
			if err := deploy.NewDaemon(env, cfg.Seed).Install(*v); err != nil {
				return &Rejection{Vaccine: v.ID, Reason: fmt.Sprintf("deployment failed: %v", err)}
			}
			tr, err := emu.Run(b.Program, env, opts)
			if err != nil {
				return &Rejection{Vaccine: v.ID, Program: b.Name(), Reason: err.Error()}
			}
			if rej := referenceCompare(baselines[i], tr); rej != "" {
				return &Rejection{Vaccine: v.ID, Program: b.Name(), Reason: rej}
			}
		}
		return nil
	}
	rep := &Report{ProgramsTested: len(benign)}
	for i := range vaccines {
		if rej := testOne(&vaccines[i]); rej != nil {
			rep.Rejected = append(rep.Rejected, *rej)
		} else {
			rep.Passed = append(rep.Passed, vaccines[i])
		}
	}
	return rep, nil
}

// referenceCompare is compare without the SameContexts shortcut.
func referenceCompare(base, got *trace.Trace) string {
	if base.Exit != got.Exit {
		return fmt.Sprintf("exit changed: %v -> %v", base.Exit, got.Exit)
	}
	d := alignment.AlignTraces(got, base)
	if !d.Empty() {
		detail := ""
		if len(d.DeltaN) > 0 {
			detail = fmt.Sprintf("; lost %s", d.DeltaN[0].API)
		} else if len(d.DeltaM) > 0 {
			detail = fmt.Sprintf("; gained %s", d.DeltaM[0].API)
		}
		return fmt.Sprintf("trace diverged (Δ=%d/%d%s)", len(d.DeltaM), len(d.DeltaN), detail)
	}
	return ""
}

// clinicCase builds a vaccine with a unique ID.
func clinicCase(id string, kind winenv.ResourceKind, class determinism.Class, ident string, pol vaccine.Polarity) vaccine.Vaccine {
	v := vaccine.Vaccine{
		ID: id, Sample: "clinic-case", Resource: kind, Class: class,
		Op: "open", API: "OpenMutexA", Effect: impact.Full, Polarity: pol,
		Delivery: vaccine.DirectInjection,
	}
	if class == determinism.PartialStatic {
		v.Pattern = ident
		v.Delivery = vaccine.VaccineDaemon
	} else {
		v.Identifier = ident
	}
	return v
}

// sliceVaccine extracts a per-host mutex vaccine from a Conficker-style
// sample, so deploying it replays the slice in a nested snapshot.
func sliceVaccine(t *testing.T) vaccine.Vaccine {
	t.Helper()
	prog := malware.MustEmit(&malware.Spec{Name: "clinic-algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-7`}}})
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()), emu.Options{Seed: 3, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	call := tr.CallsTo("CreateMutexA")[0]
	sl, err := determinism.Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}
	v := clinicCase("algo/mutex", winenv.KindMutex, determinism.AlgorithmDeterministic, call.Identifier, vaccine.SimulatePresence)
	v.Slice = sl
	v.Delivery = vaccine.VaccineDaemon
	return v
}

// clinicCases is every kind of vaccine the clinic handles, each
// rejecting one followed by a clean one tested in the same arena.
func clinicCases(t *testing.T) []vaccine.Vaccine {
	const (
		static   = determinism.Static
		pattern  = determinism.PartialStatic
		presence = vaccine.SimulatePresence
		block    = vaccine.BlockAccess
	)
	return []vaccine.Vaccine{
		clinicCase("firefox/mutex", winenv.KindMutex, static, "FirefoxSingletonMutex", presence),
		clinicCase("clean/mutex", winenv.KindMutex, static, "!VoqA.I4", presence),
		clinicCase("config/file", winenv.KindFile, static, `C:\Users\alice\AppData\vlc\vlcrc`, block),
		clinicCase("clean/file", winenv.KindFile, static, `C:\Windows\system32\sdra64.exe`, block),
		clinicCase("mozilla/window", winenv.KindWindow, pattern, "Mozilla*", block),
		clinicCase("clean/pattern", winenv.KindMutex, pattern, "WORMX-*", presence),
		clinicCase("blackhole/domain", winenv.KindDomain, static, "update.videolan.example", block),
		clinicCase("clean/domain", winenv.KindDomain, static, "c2.evil.example", block),
		clinicCase("register/domain", winenv.KindDomain, static, "update.google.example", presence),
		clinicCase("updates/domain", winenv.KindDomain, pattern, "update.*", block),
		clinicCase("clean/mutex2", winenv.KindMutex, static, "_AVIRA_2109", presence),
		sliceVaccine(t),
		clinicCase("undeployable/mutex", winenv.KindMutex, static, "", presence),
		clinicCase("clean/mutex3", winenv.KindMutex, static, "Global\\WORM-Z", presence),
	}
}

// reportSummary reduces a report to what the clinic promises to keep
// identical: passed IDs and each rejection's vaccine, program and
// reason.
type reportSummary struct {
	Passed   []string
	Rejected []Rejection
	Tested   int
}

func summarize(rep *Report) reportSummary {
	s := reportSummary{Rejected: rep.Rejected, Tested: rep.ProgramsTested}
	for _, v := range rep.Passed {
		s.Passed = append(s.Passed, v.ID)
	}
	return s
}

// twins are two single-instance programs guarding one mutex: the
// second exits if the first's run leaks into its own.
func twins() []*malware.Sample {
	var out []*malware.Sample
	for _, name := range []string{"twin-a", "twin-b"} {
		spec := &malware.Spec{Name: name,
			Behaviors: []malware.Behavior{{Kind: malware.BehMarkerMutex, ID: "TwinInstanceMutex"}}}
		out = append(out, &malware.Sample{Spec: spec, Program: malware.MustEmit(spec)})
	}
	return out
}

func TestSuiteMatchesFreshEnvironmentReference(t *testing.T) {
	benign := append(suite(t, 41), twins()...)
	cfg := Config{Seed: 3, Identity: winenv.DefaultIdentity()}
	cases := clinicCases(t)
	ref, err := referenceRun(cases, benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(ref)

	// The list must reach every rejection path, or agreeing with the
	// reference would prove little.
	rejected := map[string]string{}
	for _, r := range ref.Rejected {
		rejected[r.Vaccine] = r.Program
	}
	for _, id := range []string{"firefox/mutex", "config/file", "mozilla/window", "blackhole/domain", "updates/domain"} {
		if rejected[id] == "" {
			t.Errorf("reference did not reject %s against a program: %+v", id, ref.Rejected)
		}
	}
	if prog, ok := rejected["undeployable/mutex"]; !ok || prog != "" {
		t.Errorf("reference did not reject the undeployable vaccine at deployment: %+v", ref.Rejected)
	}
	for _, id := range []string{"clean/mutex", "clean/file", "clean/pattern", "clean/domain", "clean/mutex2", "algo/mutex", "clean/mutex3"} {
		if _, ok := rejected[id]; ok {
			t.Errorf("reference rejected clean vaccine %s", id)
		}
	}

	s, err := NewSuite(benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		if got := summarize(s.Run(cases)); !reflect.DeepEqual(got, want) {
			t.Fatalf("Suite.Run #%d:\n got %+v\nwant %+v", run, got, want)
		}
	}
	// One vaccine at a time (a fresh arena state per Run) agrees too.
	for i := range cases {
		got := summarize(s.Run(cases[i : i+1]))
		one, err := referenceRun(cases[i:i+1], benign, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, summarize(one)) {
			t.Errorf("%s alone: got %+v, want %+v", cases[i].ID, got, summarize(one))
		}
	}
}

func TestSuitePanicDoesNotLeak(t *testing.T) {
	benign := suite(t, 41)
	cfg := Config{Seed: 3, Identity: winenv.DefaultIdentity()}
	cases := clinicCases(t)
	ref, err := referenceRun(cases, benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSuite(benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A slice without a program passes validation but panics in the
	// replay that deployment runs.
	broken := clinicCase("broken/slice", winenv.KindMutex, determinism.AlgorithmDeterministic, "x", vaccine.SimulatePresence)
	broken.Slice = &determinism.Slice{}
	for _, list := range [][]vaccine.Vaccine{
		{broken},
		append(cases[:2:2], broken),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("install of a program-less slice did not panic")
				}
			}()
			s.Run(list)
		}()
		if got := summarize(s.Run(cases)); !reflect.DeepEqual(got, summarize(ref)) {
			t.Fatalf("after a panic:\n got %+v\nwant %+v", got, summarize(ref))
		}
	}
}

func TestSuiteConcurrentRuns(t *testing.T) {
	benign := suite(t, 12)
	cfg := Config{Seed: 3, Identity: winenv.DefaultIdentity()}
	cases := clinicCases(t)
	ref, err := referenceRun(cases, benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(ref)
	s, err := NewSuite(benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := summarize(s.Run(cases)); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Run:\n got %+v\nwant %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// craftedHost is a benign program whose lookups are not its logged
// identifiers. It loads an absent DLL, so LoadLibraryA also looks the
// name up in the file namespace, and it starts an absent helper from an
// image path, so CreateProcessA looks up the path in the file namespace
// and the image's base name, not the helper it probed for, in the
// process namespace.
func craftedHost() *malware.Sample {
	spec := &malware.Spec{Name: "crafted-host", Behaviors: []malware.Behavior{
		{Kind: malware.BehLibraryCheck, ID: "plugin.dll"},
		{Kind: malware.BehProcessCheck, ID: "crafthlp.exe", Aux: `C:\Program Files\Crafted\craftsvc.exe`},
	}}
	return &malware.Sample{Spec: spec, Program: malware.MustEmit(spec)}
}

// craftedCases are static vaccines on keys the benign suite reads only
// through a lookup that is not a logged identifier.
func craftedCases() []vaccine.Vaccine {
	const static, presence, block = determinism.Static, vaccine.SimulatePresence, vaccine.BlockAccess
	return []vaccine.Vaccine{
		clinicCase("crafted/dll-file", winenv.KindFile, static, "PLUGIN.DLL", presence),
		clinicCase("crafted/image-file", winenv.KindFile, static, `C:\Program Files\Crafted\craftsvc.exe`, presence),
		clinicCase("crafted/image-process", winenv.KindProcess, static, "craftsvc.exe", presence),
		clinicCase("itunes/run-value", winenv.KindRegistry, static, `HKLM\Software\Microsoft\Windows\CurrentVersion\Run\iTunesHelper`, block),
	}
}

// usesNetwork reports whether a benign program's spec talks to an
// update host.
func usesNetwork(s *malware.Sample) bool {
	for _, b := range s.Spec.Behaviors {
		if b.Kind == malware.BehNetworkCC {
			return true
		}
	}
	return false
}

func TestSuiteRerunsOnlyWhatTheInstallChanged(t *testing.T) {
	benign := append(suite(t, 41), craftedHost())
	cfg := Config{Seed: 3, Identity: winenv.DefaultIdentity()}
	cases := append(craftedCases(), clinicCases(t)...)
	ref, err := referenceRun(cases, benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejectedBy := map[string]string{}
	for _, r := range ref.Rejected {
		rejectedBy[r.Vaccine] = r.Program
	}
	for id, prog := range map[string]string{
		"crafted/dll-file":      "crafted-host",
		"crafted/image-file":    "crafted-host",
		"crafted/image-process": "crafted-host",
		"itunes/run-value":      "benign-itunes",
	} {
		if rejectedBy[id] != prog {
			t.Errorf("reference did not reject %s against %s: %+v", id, prog, ref.Rejected)
		}
	}
	s, err := NewSuite(benign, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summarize(s.Run(cases)), summarize(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("Suite.Run:\n got %+v\nwant %+v", got, want)
	}
	for _, v := range cases {
		// full is the runs a clinic without the skip makes: the suite up
		// to and including the program that rejects the vaccine.
		prog, rejected := rejectedBy[v.ID]
		full := len(benign)
		if rejected {
			full = 0
			for j, b := range benign {
				if b.Name() == prog {
					full = j + 1
				}
			}
		}
		var want int
		switch {
		case v.Class == determinism.PartialStatic && v.Resource != winenv.KindDomain:
			want = full // a hook can intercept any request
		case v.Resource == winenv.KindDomain:
			for _, b := range benign[:full] {
				if usesNetwork(b) {
					want++
				}
			}
		case prog != "":
			want = 1 // no other program reads the vaccine's key
		}
		if got := s.Run([]vaccine.Vaccine{v}).Runs; got != want {
			t.Errorf("%s: %d runs, want %d", v.ID, got, want)
		}
	}
}
