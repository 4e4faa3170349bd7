package c2

import (
	"bytes"
	"testing"

	"autovac/internal/winenv"
)

func testScenario() *Scenario {
	return &Scenario{
		Name:       "test",
		Domains:    []string{"cc.botnet.example"},
		Killswitch: []string{"iuqerfsod.example"},
		DGAPatterns: []string{
			"*.dga-feed.example",
		},
		Beacons: []Beacon{{
			Target: "cc.botnet.example:8080",
			Expect: []byte("HELO"),
			Reply:  []byte("CMD:run"),
		}},
		Stages: []Stage{{
			URL:        "http://cc.botnet.example/stage2.bin",
			Body:       []byte("PAYLOAD-BYTES"),
			MinBeacons: 1,
		}},
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := testScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []*Scenario{
		{Domains: []string{""}},
		{Domains: []string{"a b.example"}},
		{Domains: []string{"x.example"}, Killswitch: []string{"x.example"}},
		{DGAPatterns: []string{"no-wildcard.example"}},
		{DGAPatterns: []string{"*.*.example"}},
		{Stages: []Stage{{URL: ""}}},
		{Stages: []Stage{{URL: "u", MinBeacons: -1}}},
		{Beacons: []Beacon{{Target: ""}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestResolveSemantics(t *testing.T) {
	sc := testScenario()
	n := winenv.New(winenv.DefaultIdentity()).Net()
	n.SetResponder(sc.NewResponder())

	if _, ok := n.Resolve("cc.botnet.example"); !ok {
		t.Fatal("C2 domain did not resolve")
	}
	if _, ok := n.Resolve("iuqerfsod.example"); ok {
		t.Fatal("killswitch domain resolved")
	}
	if _, ok := n.Resolve("win-abc123.dga-feed.example"); !ok {
		t.Fatal("DGA name did not resolve")
	}
	// Unscripted names fall through to default success...
	if _, ok := n.Resolve("update.microsoft.com"); !ok {
		t.Fatal("unscripted name failed in non-strict scenario")
	}
	// ...unless the scenario is strict.
	sc2 := testScenario()
	sc2.StrictResolve = true
	n.SetResponder(sc2.NewResponder())
	if _, ok := n.Resolve("update.microsoft.com"); ok {
		t.Fatal("unscripted name resolved in strict scenario")
	}
}

func TestKillswitchRegistrationOverridesScript(t *testing.T) {
	sc := testScenario()
	n := winenv.New(winenv.DefaultIdentity()).Net()
	n.SetResponder(sc.NewResponder())
	n.Register("iuqerfsod.example") // the deployed vaccine
	if _, ok := n.Resolve("iuqerfsod.example"); !ok {
		t.Fatal("registered killswitch did not resolve")
	}
}

func TestBeaconDialogue(t *testing.T) {
	sc := testScenario()
	r := sc.NewResponder()
	n := winenv.New(winenv.DefaultIdentity()).Net()
	n.SetResponder(r)

	s := winenv.Handle(0x7000)
	if !n.BindConnect(s, "cc.botnet.example:8080") {
		t.Fatal("connect to scripted C2 failed")
	}
	// Wrong handshake: hangs up with an empty reply.
	n.SendPayload(s, []byte("JUNK"))
	if data, ok, handled := n.RecvPayload(s, 32); !handled || !ok || len(data) != 0 {
		t.Fatalf("wrong handshake got %q ok=%v handled=%v", data, ok, handled)
	}
	if r.Exchanges() != 0 {
		t.Fatal("failed handshake counted as exchange")
	}
	// Correct handshake: scripted reply.
	n.SendPayload(s, []byte("HELO botnet/7")) // prefix match
	data, ok, _ := n.RecvPayload(s, 32)
	if !ok || !bytes.Equal(data, []byte("CMD:run")) {
		t.Fatalf("beacon reply = %q ok=%v", data, ok)
	}
	if r.Exchanges() != 1 {
		t.Fatalf("exchanges = %d", r.Exchanges())
	}
}

func TestStagedPayloadGatedOnBeacon(t *testing.T) {
	sc := testScenario()
	r := sc.NewResponder()
	n := winenv.New(winenv.DefaultIdentity()).Net()
	n.SetResponder(r)

	url := "http://cc.botnet.example/stage2.bin"
	h, ok := n.HTTPGet(url)
	if !ok {
		t.Fatal("HTTPGet to scripted stage failed")
	}
	// Stage locked before the beacon exchange.
	if data, ok, handled := n.RecvPayload(h, 64); !handled || !ok || len(data) != 0 {
		t.Fatalf("locked stage served %q ok=%v handled=%v", data, ok, handled)
	}
	// Complete the beacon, then read the stage in two chunks.
	s := winenv.Handle(0x7000)
	n.BindConnect(s, "cc.botnet.example:8080")
	n.SendPayload(s, []byte("HELO"))
	if _, ok, _ := n.RecvPayload(s, 16); !ok {
		t.Fatal("beacon exchange failed")
	}
	first, _, _ := n.RecvPayload(h, 7)
	rest, _, _ := n.RecvPayload(h, 64)
	if got := string(first) + string(rest); got != "PAYLOAD-BYTES" {
		t.Fatalf("staged body = %q", got)
	}
	// EOF after the body is exhausted.
	if data, _, _ := n.RecvPayload(h, 64); len(data) != 0 {
		t.Fatalf("read past EOF returned %q", data)
	}
}

func TestResponderMarkRewind(t *testing.T) {
	sc := testScenario()
	r := sc.NewResponder()
	n := winenv.New(winenv.DefaultIdentity()).Net()
	n.SetResponder(r)
	s := winenv.Handle(0x7000)
	n.BindConnect(s, "cc.botnet.example:8080")

	mark := r.Mark()
	n.SendPayload(s, []byte("HELO"))
	n.RecvPayload(s, 16)
	if r.Exchanges() != 1 {
		t.Fatal("exchange not recorded")
	}
	r.Rewind(mark)
	if r.Exchanges() != 0 {
		t.Fatal("rewind did not restore exchange count")
	}
	// Rewinding twice to the same mark works (marks stay pristine).
	n.SendPayload(s, []byte("HELO"))
	n.RecvPayload(s, 16)
	r.Rewind(mark)
	if r.Exchanges() != 0 {
		t.Fatal("second rewind to same mark failed")
	}
}

func TestResponderRewindsThroughSnapshot(t *testing.T) {
	sc := testScenario()
	e := winenv.New(winenv.DefaultIdentity())
	n := e.Net()
	r := sc.NewResponder()
	n.SetResponder(r)
	s := winenv.Handle(0x7000)
	n.BindConnect(s, "cc.botnet.example:8080")

	snap := e.Snapshot()
	n.SendPayload(s, []byte("HELO"))
	n.RecvPayload(s, 16)
	h, _ := n.HTTPGet("http://cc.botnet.example/stage2.bin")
	n.RecvPayload(h, 64)
	e.Reset(snap)
	snap.Close()

	if r.Exchanges() != 0 {
		t.Fatal("snapshot reset did not rewind responder exchanges")
	}
	// The stage read offset must also rewind: a fresh gated read fails
	// again until the beacon re-fires.
	h2, _ := n.HTTPGet("http://cc.botnet.example/stage2.bin")
	if data, _, _ := n.RecvPayload(h2, 64); len(data) != 0 {
		t.Fatalf("stage offset not rewound, served %q", data)
	}
}

func TestHostOfAndGlob(t *testing.T) {
	cases := []struct{ in, want string }{
		{"cc.example.com", "cc.example.com"},
		{"cc.example.com:445", "cc.example.com"},
		{"http://cc.example.com/x/y.bin", "cc.example.com"},
		{"HTTP://CC.EXAMPLE.COM:8080/z", "cc.example.com"},
	}
	for _, c := range cases {
		if got := hostOf(c.in); got != c.want {
			t.Errorf("hostOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if !matchGlob("*.dga.example", "abc.dga.example") {
		t.Error("glob suffix match failed")
	}
	if matchGlob("*.dga.example", "dga.example") {
		t.Error("glob matched too-short name")
	}
	if !matchGlob("seed-*", "seed-12345") {
		t.Error("glob prefix match failed")
	}
}
