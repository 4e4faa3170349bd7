package deploy

import (
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/impact"
	"autovac/internal/malware"
	"autovac/internal/trace"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

func staticVaccine() vaccine.Vaccine {
	return vaccine.Vaccine{
		ID: "poisonivy/mutex/0", Sample: "poisonivy",
		Resource: winenv.KindMutex, Identifier: "!VoqA.I4",
		Class: determinism.Static, Op: "open", API: "OpenMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.DirectInjection,
	}
}

func blockVaccine() vaccine.Vaccine {
	return vaccine.Vaccine{
		ID: "zeus/file/0", Sample: "zeus",
		Resource: winenv.KindFile, Identifier: `C:\Windows\system32\sdra64.exe`,
		Class: determinism.Static, Op: "create", API: "CreateFileA",
		Effect: impact.Full, Polarity: vaccine.BlockAccess,
		Delivery: vaccine.DirectInjection,
	}
}

func TestInjectSimulatePresence(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	if err := NewDaemon(env, 1).Install(staticVaccine()); err != nil {
		t.Fatal(err)
	}
	r := env.Lookup(winenv.KindMutex, "!VoqA.I4")
	if r == nil || r.Owner != "vaccine" {
		t.Fatalf("marker not injected: %+v", r)
	}
	// Malware can open (sees the marker) but cannot delete it.
	open := env.Do(winenv.Request{Kind: winenv.KindMutex, Op: winenv.OpOpen, Name: "!VoqA.I4", Principal: "mal"})
	if !open.OK {
		t.Error("marker not visible to malware")
	}
	del := env.Do(winenv.Request{Kind: winenv.KindMutex, Op: winenv.OpDelete, Name: "!VoqA.I4", Principal: "mal"})
	if del.OK {
		t.Error("malware could delete the marker")
	}
}

func TestInjectBlockAccess(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	if err := NewDaemon(env, 1).Install(blockVaccine()); err != nil {
		t.Fatal(err)
	}
	for _, op := range []winenv.Op{winenv.OpCreate, winenv.OpOpen, winenv.OpWrite, winenv.OpRead} {
		res := env.Do(winenv.Request{Kind: winenv.KindFile, Op: op, Name: `C:\Windows\system32\sdra64.exe`, Principal: "zeus"})
		if res.OK {
			t.Errorf("op %v allowed on blocked vaccine file", op)
		}
	}
}

func TestInjectedVaccineImmunizesSample(t *testing.T) {
	g := malware.NewGenerator(1)
	s, _ := g.FamilySample(malware.PoisonIvy)
	env := winenv.New(winenv.DefaultIdentity())
	if err := NewDaemon(env, 1).Install(staticVaccine()); err != nil {
		t.Fatal(err)
	}
	tr, _ := emu.Run(s.Program, env, emu.Options{Seed: 5})
	if tr.Exit != trace.ExitProcess {
		t.Fatalf("exit = %v, want exit-process", tr.Exit)
	}
}

func TestAlgorithmDeterministicInjection(t *testing.T) {
	// Build the Conficker-style sample, extract its slice, deploy on a
	// DIFFERENT host.
	spec := &malware.Spec{Name: "algo-deploy", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-9`}}}
	prog := malware.MustEmit(spec)
	srcEnv := winenv.New(winenv.DefaultIdentity())
	tr, err := emu.Run(prog, srcEnv, emu.Options{Seed: 3, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	call := tr.CallsTo("CreateMutexA")[0]
	sl, err := determinism.Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}
	v := vaccine.Vaccine{
		ID: "algo-deploy/mutex/0", Sample: "algo-deploy",
		Resource: winenv.KindMutex, Identifier: call.Identifier,
		Class: determinism.AlgorithmDeterministic, Op: "open", API: "OpenMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.DirectInjection, Slice: sl,
	}

	otherID := winenv.DefaultIdentity()
	otherID.ComputerName = "HR-LAPTOP-3"
	hostB := winenv.New(otherID)
	if err := NewDaemon(hostB, 1).Install(v); err != nil {
		t.Fatal(err)
	}
	if !hostB.Exists(winenv.KindMutex, `Global\HR-LAPTOP-3-9`) {
		t.Fatalf("per-host marker not injected; have %v", hostB.List(winenv.KindMutex, "vaccine"))
	}
	// The sample is immunized on host B.
	trB, _ := emu.Run(prog, hostB, emu.Options{Seed: 3})
	if trB.Exit != trace.ExitProcess {
		t.Errorf("host B not immunized: exit %v", trB.Exit)
	}
}

func TestDaemonPartialStaticInterception(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(env, 1)
	v := vaccine.Vaccine{
		ID: "worm/mutex/0", Sample: "worm-0001",
		Resource: winenv.KindMutex, Pattern: "WORMX-*",
		Class: determinism.PartialStatic, Op: "create", API: "CreateMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.VaccineDaemon,
	}
	if err := d.Install(v); err != nil {
		t.Fatal(err)
	}

	// A matching create is answered with ALREADY_EXISTS.
	res := env.Do(winenv.Request{Kind: winenv.KindMutex, Op: winenv.OpCreate, Name: "WORMX-9f3c", Principal: "worm"})
	if !res.OK || res.Err != winenv.ErrAlreadyExists || !res.Intercepted {
		t.Fatalf("intercepted create: %+v", res)
	}
	// A non-matching create passes through.
	res = env.Do(winenv.Request{Kind: winenv.KindMutex, Op: winenv.OpCreate, Name: "benign-mutex", Principal: "app"})
	if !res.OK || res.Intercepted {
		t.Fatalf("pass-through create: %+v", res)
	}
	// A matching resource of a different kind passes through.
	res = env.Do(winenv.Request{Kind: winenv.KindFile, Op: winenv.OpCreate, Name: "WORMX-0000", Principal: "app"})
	if res.Intercepted {
		t.Error("kind mismatch intercepted")
	}
	inspected, intercepted := d.Stats()
	if inspected != 3 || intercepted != 1 {
		t.Errorf("stats = %d/%d, want 3/1", inspected, intercepted)
	}
}

func TestDaemonImmunizesPartialMutexWorm(t *testing.T) {
	spec := &malware.Spec{Name: "pworm", Category: malware.Worm,
		Behaviors: []malware.Behavior{
			{Kind: malware.BehPartialMutex, ID: "WORMX"},
			{Kind: malware.BehNetworkCC, ID: "w.example", Aux: "445", Count: 2},
		}}
	prog := malware.MustEmit(spec)

	// Unprotected host: worm runs its network loop.
	clean := winenv.New(winenv.DefaultIdentity())
	trClean, _ := emu.Run(prog, clean, emu.Options{Seed: 2})
	if len(trClean.CallsTo("connect")) == 0 {
		t.Fatal("worm did not run on clean host")
	}

	// Daemon-protected host: the CreateMutex probe reports
	// ALREADY_EXISTS and the worm exits.
	prot := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(prot, 1)
	err := d.Install(vaccine.Vaccine{
		ID: "pworm/mutex/0", Sample: "pworm",
		Resource: winenv.KindMutex, Pattern: "WORMX-*",
		Class: determinism.PartialStatic, Op: "create", API: "CreateMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.VaccineDaemon,
	})
	if err != nil {
		t.Fatal(err)
	}
	trProt, _ := emu.Run(prog, prot, emu.Options{Seed: 2})
	if trProt.Exit != trace.ExitProcess {
		t.Fatalf("protected exit = %v", trProt.Exit)
	}
	if len(trProt.CallsTo("connect")) != 0 {
		t.Error("worm network loop ran under daemon")
	}
}

func TestDaemonBlockAccessPattern(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(env, 1)
	err := d.Install(vaccine.Vaccine{
		ID: "x/file/0", Sample: "x",
		Resource: winenv.KindFile, Pattern: `C:\Windows\system32\drivers\*`,
		Class: determinism.PartialStatic, Op: "create", API: "CreateFileA",
		Effect: impact.TypeI, Polarity: vaccine.BlockAccess,
		Delivery: vaccine.VaccineDaemon,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := env.Do(winenv.Request{Kind: winenv.KindFile, Op: winenv.OpCreate,
		Name: `C:\Windows\system32\drivers\evil.sys`, Principal: "mal"})
	if res.OK || res.Err != winenv.ErrAccessDenied {
		t.Fatalf("driver create: %+v", res)
	}
}

func TestDaemonRefreshOnIdentityChange(t *testing.T) {
	spec := &malware.Spec{Name: "algo-refresh", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-3`}}}
	prog := malware.MustEmit(spec)
	srcEnv := winenv.New(winenv.DefaultIdentity())
	tr, _ := emu.Run(prog, srcEnv, emu.Options{Seed: 3, Profile: true})
	call := tr.CallsTo("CreateMutexA")[0]
	sl, err := determinism.Extract(prog, tr, call.Seq)
	if err != nil {
		t.Fatal(err)
	}

	env := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(env, 1)
	err = d.Install(vaccine.Vaccine{
		ID: "algo-refresh/mutex/0", Sample: "algo-refresh",
		Resource: winenv.KindMutex, Identifier: call.Identifier,
		Class: determinism.AlgorithmDeterministic, Op: "open", API: "OpenMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.VaccineDaemon, Slice: sl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !env.Exists(winenv.KindMutex, `Global\WIN-AUTOVAC01-3`) {
		t.Fatal("initial injection missing")
	}

	// No change: refresh does nothing.
	n, err := d.Refresh()
	if err != nil || n != 0 {
		t.Fatalf("no-op refresh = %d, %v", n, err)
	}

	// The machine is renamed; refresh regenerates.
	id := env.Identity()
	id.ComputerName = "RENAMED-BOX"
	env.SetIdentity(id)
	n, err = d.Refresh()
	if err != nil || n != 1 {
		t.Fatalf("refresh = %d, %v", n, err)
	}
	if !env.Exists(winenv.KindMutex, `Global\RENAMED-BOX-3`) {
		t.Error("regenerated marker missing")
	}
	if env.Exists(winenv.KindMutex, `Global\WIN-AUTOVAC01-3`) {
		t.Error("stale marker not removed")
	}
	if d.VaccineCount() != 1 {
		t.Errorf("vaccine count = %d", d.VaccineCount())
	}
}

func TestInstallPackIdempotent(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(env, 1)
	bad := staticVaccine()
	bad.ID = "bad/mutex/0"
	bad.Identifier = "" // fails validation
	pack := []vaccine.Vaccine{
		staticVaccine(),
		blockVaccine(),
		{
			ID: "p/mutex/0", Sample: "p",
			Resource: winenv.KindMutex, Pattern: "PACK-*",
			Class: determinism.PartialStatic, Effect: impact.Full,
			Polarity: vaccine.SimulatePresence, Delivery: vaccine.VaccineDaemon,
		},
		bad,
	}
	installed, skipped, failed := d.InstallPack(pack)
	if installed != 3 || skipped != 0 || failed != 1 {
		t.Fatalf("first install: %d/%d/%d, want 3/0/1", installed, skipped, failed)
	}
	if !d.Has("poisonivy/mutex/0") || d.Has("bad/mutex/0") {
		t.Fatal("Has disagrees with install results")
	}
	// Replaying the same pack (a fleet full sync) is a no-op.
	installed, skipped, failed = d.InstallPack(pack)
	if installed != 0 || skipped != 3 || failed != 1 {
		t.Fatalf("replay: %d/%d/%d, want 0/3/1", installed, skipped, failed)
	}
	if d.VaccineCount() != 3 {
		t.Fatalf("daemon holds %d vaccines, want 3", d.VaccineCount())
	}
	got := d.Installed()
	if len(got) != 3 || got[0].ID > got[1].ID || got[1].ID > got[2].ID {
		t.Fatalf("Installed snapshot unordered: %v", got)
	}
}

func sinkholeVaccine() vaccine.Vaccine {
	return vaccine.Vaccine{
		ID: "worm/domain/0", Sample: "worm",
		Resource: winenv.KindDomain, Identifier: "cc.botnet.example",
		Class: determinism.Static, Op: "open", API: "gethostbyname",
		Effect: impact.TypeII, Polarity: vaccine.BlockAccess,
		Delivery: vaccine.DirectInjection,
	}
}

func TestInjectDomainSinkhole(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	v := sinkholeVaccine()
	if err := NewDaemon(env, 1).Install(v); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Net().Resolve("cc.botnet.example"); ok {
		t.Fatal("sinkholed C2 domain still resolves")
	}
	removeDomain(env, v.Polarity, v.Identifier)
	if _, ok := env.Net().Resolve("cc.botnet.example"); !ok {
		t.Fatal("domain still sinkholed after removeDomain")
	}
}

func TestInjectDomainKillswitchRegistration(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	v := sinkholeVaccine()
	v.ID = "worm/domain/1"
	v.Identifier = "iuqerfsod.example"
	v.Polarity = vaccine.SimulatePresence
	if err := NewDaemon(env, 1).Install(v); err != nil {
		t.Fatal(err)
	}
	if !env.Net().Registered("iuqerfsod.example") {
		t.Fatal("killswitch not registered")
	}
	removeDomain(env, v.Polarity, v.Identifier)
	if env.Net().Registered("iuqerfsod.example") {
		t.Fatal("killswitch still registered after removeDomain")
	}
}

func TestDaemonDomainPatternSinkhole(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(env, 1)
	v := sinkholeVaccine()
	v.Class = determinism.PartialStatic
	v.Identifier = ""
	v.Pattern = "*.dga-feed.example"
	v.Delivery = vaccine.VaccineDaemon
	if err := d.Install(v); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Net().Resolve("win-x.dga-feed.example"); ok {
		t.Fatal("patterned DGA domain resolved through daemon")
	}
	if _, ok := env.Net().Resolve("update.example.com"); !ok {
		t.Fatal("unrelated domain refused by daemon")
	}
	// A presence-polarity pattern forces resolution instead.
	reg := sinkholeVaccine()
	reg.ID = "worm/domain/2"
	reg.Class = determinism.PartialStatic
	reg.Identifier = ""
	reg.Pattern = "ks-*.example"
	reg.Polarity = vaccine.SimulatePresence
	reg.Delivery = vaccine.VaccineDaemon
	if err := d.Install(reg); err != nil {
		t.Fatal(err)
	}
	env.Net().SetResponder(refuseResponder{})
	if _, ok := env.Net().Resolve("ks-2026.example"); !ok {
		t.Fatal("presence pattern did not force registration over responder refusal")
	}
	if _, intercepted := d.Stats(); intercepted < 2 {
		t.Fatalf("intercepts = %d, want >= 2", intercepted)
	}
}

// refuseResponder scripts a world where nothing exists.
type refuseResponder struct{}

func (refuseResponder) ResolveHost(string) (string, bool, bool) { return "", false, true }
func (refuseResponder) AcceptConnect(string) (bool, bool)       { return false, true }
func (refuseResponder) ObserveSend(string, []byte)              {}
func (refuseResponder) Payload(string, int) ([]byte, bool)      { return nil, false }
func (refuseResponder) Mark() any                               { return nil }
func (refuseResponder) Rewind(any)                              {}
