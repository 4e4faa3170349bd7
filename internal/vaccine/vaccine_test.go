package vaccine

import (
	"bytes"
	"strings"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/impact"
	"autovac/internal/winenv"
)

func valid() Vaccine {
	return Vaccine{
		ID: "zeus/mutex/0", Sample: "zeus", Family: "Zeus/Zbot", Category: "Backdoor",
		Resource: winenv.KindMutex, Identifier: "_AVIRA_2109",
		Class: determinism.Static, Op: "open", API: "OpenMutexA",
		Effect: impact.TypeIV, Effects: []impact.Effect{impact.TypeIV, impact.TypeIII},
		Polarity: SimulatePresence, Delivery: DirectInjection,
	}
}

func TestEnumStrings(t *testing.T) {
	if SimulatePresence.String() != "simulate-presence" || BlockAccess.String() != "block-access" {
		t.Error("Polarity strings wrong")
	}
	if DirectInjection.String() != "direct-injection" || VaccineDaemon.String() != "daemon" {
		t.Error("Delivery strings wrong")
	}
}

func TestValidate(t *testing.T) {
	v := valid()
	if err := v.Validate(); err != nil {
		t.Fatalf("valid vaccine rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Vaccine)
		want   string
	}{
		{"missing id", func(v *Vaccine) { v.ID = "" }, "missing ID"},
		{"bad resource", func(v *Vaccine) { v.Resource = winenv.KindInvalid }, "invalid resource"},
		{"static no identifier", func(v *Vaccine) { v.Identifier = "" }, "static without identifier"},
		{"partial no pattern", func(v *Vaccine) {
			v.Class = determinism.PartialStatic
			v.Delivery = VaccineDaemon
		}, "without pattern"},
		{"partial direct delivery", func(v *Vaccine) {
			v.Class = determinism.PartialStatic
			v.Pattern = "X-*"
		}, "requires daemon"},
		{"algo no slice", func(v *Vaccine) { v.Class = determinism.AlgorithmDeterministic }, "without slice"},
		{"non-deterministic", func(v *Vaccine) { v.Class = determinism.NonDeterministic }, "not deployable"},
		{"no effect", func(v *Vaccine) { v.Effect = impact.NoImmunization }, "no immunization"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := valid()
			tc.mutate(&v)
			err := v.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestFullImmunization(t *testing.T) {
	v := valid()
	if v.FullImmunization() {
		t.Error("Type-IV reported full")
	}
	v.Effect = impact.Full
	if !v.FullImmunization() {
		t.Error("Full not reported")
	}
}

func TestStringRendersPattern(t *testing.T) {
	v := valid()
	if !strings.Contains(v.String(), "_AVIRA_2109") {
		t.Errorf("String() = %q", v.String())
	}
	v.Class = determinism.PartialStatic
	v.Pattern = "WORMX-*"
	if !strings.Contains(v.String(), "WORMX-*") {
		t.Errorf("String() = %q", v.String())
	}
}

func TestPackRoundTrip(t *testing.T) {
	p := &Pack{Generator: "autovac-test", Vaccines: []Vaccine{valid()}}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPack(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generator != "autovac-test" || len(got.Vaccines) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	v := got.Vaccines[0]
	if v.Identifier != "_AVIRA_2109" || v.Resource != winenv.KindMutex ||
		v.Effect != impact.TypeIV || len(v.Effects) != 2 {
		t.Errorf("vaccine lost fields: %+v", v)
	}
}

func TestReadPackRejectsInvalid(t *testing.T) {
	bad := &Pack{Vaccines: []Vaccine{{ID: "x"}}}
	var buf bytes.Buffer
	if err := bad.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPack(&buf); err == nil {
		t.Error("invalid pack accepted")
	}
	if _, err := ReadPack(strings.NewReader("{oops")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func domainVaccine() Vaccine {
	return Vaccine{
		ID: "worm/domain/0", Sample: "worm", Family: "Conficker",
		Resource: winenv.KindDomain, Identifier: "cc.botnet.example:445",
		Class: determinism.Static, Op: "open", API: "connect",
		Effect: impact.TypeII, Effects: []impact.Effect{impact.TypeII},
		Polarity: BlockAccess, Delivery: DirectInjection,
	}
}

func TestValidateDomainVaccine(t *testing.T) {
	v := domainVaccine()
	if err := v.Validate(); err != nil {
		t.Fatalf("valid domain vaccine rejected: %v", err)
	}
	// URLs are valid domain identifiers too.
	v.Identifier = "http://cc.botnet.example/stage2.bin"
	if err := v.Validate(); err != nil {
		t.Fatalf("URL domain identifier rejected: %v", err)
	}
	// Local-namespace shapes are not.
	for _, bad := range []string{`Global\mutex-name`, "two words.example", "tab\t.example"} {
		v := domainVaccine()
		v.Identifier = bad
		if err := v.Validate(); err == nil {
			t.Errorf("malformed domain identifier %q accepted", bad)
		}
	}
	// Pattern shape is checked for partial-static domain vaccines.
	p := domainVaccine()
	p.Class = determinism.PartialStatic
	p.Pattern = `*\dga.example`
	p.Delivery = VaccineDaemon
	if err := p.Validate(); err == nil {
		t.Error("backslash domain pattern accepted")
	}
}

func TestDedupeDomainVaccines(t *testing.T) {
	a := domainVaccine()
	b := domainVaccine()
	b.ID = "worm2/domain/0"
	b.Sample = "worm2"
	b.Identifier = "CC.BOTNET.EXAMPLE:445" // case-insensitive merge
	c := domainVaccine()
	c.ID = "worm/domain/1"
	c.Identifier = "iuqerfsod.example"
	c.Polarity = SimulatePresence // killswitch registration, distinct polarity

	out := Dedupe([]Vaccine{a, b, c})
	if len(out) != 2 {
		t.Fatalf("dedupe produced %d vaccines, want 2", len(out))
	}
	if out[0].Sample != "worm,worm2" {
		t.Errorf("merged samples = %q", out[0].Sample)
	}
	// Distinct digests for distinct domain payloads.
	p1 := Pack{Generator: "t", Vaccines: []Vaccine{a}}
	p2 := Pack{Generator: "t", Vaccines: []Vaccine{c}}
	if p1.Digest() == p2.Digest() {
		t.Error("distinct domain packs share a digest")
	}
	if err := p1.Verify(); err != nil {
		t.Errorf("domain pack failed Verify: %v", err)
	}
}

func TestIsBenignDomain(t *testing.T) {
	if !IsBenignDomain("time.windows.com") || !IsBenignDomain("a.time.windows.com:123") {
		t.Error("benign domain not recognized")
	}
	if IsBenignDomain("cc.botnet.example") || IsBenignDomain("windows.com.evil.example") {
		t.Error("non-benign domain recognized as benign")
	}
}
