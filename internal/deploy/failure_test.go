package deploy

import (
	"strings"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/impact"
	"autovac/internal/winenv"
)

func TestResolveIdentifierErrors(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())

	// Algorithm-deterministic without a slice.
	v := staticVaccine()
	v.Class = determinism.AlgorithmDeterministic
	v.Slice = nil
	if _, err := ResolveIdentifier(env, &v, 1); err == nil || !strings.Contains(err.Error(), "missing slice") {
		t.Errorf("err = %v", err)
	}

	// Partial-static resolves per-operation, not up front.
	p := staticVaccine()
	p.Class = determinism.PartialStatic
	p.Pattern = "X-*"
	if _, err := ResolveIdentifier(env, &p, 1); err == nil {
		t.Error("partial-static resolved eagerly")
	}
}

func TestDaemonInstallRejectsInvalid(t *testing.T) {
	env := winenv.New(winenv.DefaultIdentity())
	d := NewDaemon(env, 1)
	bad := staticVaccine()
	bad.Effect = impact.NoImmunization
	if err := d.Install(bad); err == nil {
		t.Error("no-effect vaccine installed")
	}
	if d.VaccineCount() != 0 {
		t.Error("invalid vaccine counted")
	}
}
