package clinic

import (
	"testing"

	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

func TestEmptyBenignSuitePassesTrivially(t *testing.T) {
	// A clinic with no benign programs cannot observe interference; the
	// vaccines pass by default (callers are expected to provide the
	// suite — this pins the degenerate behaviour).
	rep, err := Run([]vaccine.Vaccine{mkVaccine(winenv.KindMutex, "X")}, nil, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passed) != 1 || rep.ProgramsTested != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestUndeployableVaccineRejected(t *testing.T) {
	benign := suite(t, 2)
	bad := mkVaccine(winenv.KindMutex, "X")
	bad.Identifier = "" // invalid: static without identifier
	rep, err := Run([]vaccine.Vaccine{bad}, benign, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 {
		t.Fatalf("invalid vaccine not rejected: %+v", rep)
	}
	// It never deployed, so it names no program it interfered with.
	got := rep.Rejected[0].String()
	want := "test/mutex/0: deployment failed: vaccine test/mutex/0: static without identifier"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
