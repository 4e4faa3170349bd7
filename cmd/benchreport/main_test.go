package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSingleTable(t *testing.T) {
	if err := run([]string{"-table", "2", "-n", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestPhase1Only(t *testing.T) {
	if err := run([]string{"-phase1", "-n", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3(t *testing.T) {
	if err := run([]string{"-figure", "3", "-n", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestTable7(t *testing.T) {
	if err := run([]string{"-table", "7", "-n", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestAllReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	if err := run([]string{"-all", "-n", "40", "-bdrcap", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestEvasionFlag(t *testing.T) {
	if err := run([]string{"-evasion", "-n", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestAblationFlag(t *testing.T) {
	if err := run([]string{"-ablation", "-n", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestTimingFlag(t *testing.T) {
	if err := run([]string{"-timing", "-n", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Flag(t *testing.T) {
	if err := run([]string{"-table", "1", "-n", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestTriageFlag(t *testing.T) {
	if err := run([]string{"-triage", "-n", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestControlPlaneFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet study in short mode")
	}
	out := t.TempDir() + "/BENCH_fleet.json"
	if err := run([]string{"-controlplane", "-hosts", "64", "-relays", "2", "-fleetout", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("BENCH_fleet.json not written: %v", err)
	}
	// The study alone: the codec rows live in BENCH_emu.json.
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep["codec"]; ok {
		t.Error("BENCH_fleet.json has a codec section")
	}
	var study []fleetStudyRow
	if err := json.Unmarshal(rep["study"], &study); err != nil || len(study) == 0 {
		t.Errorf("BENCH_fleet.json study rows: %d (%v)", len(study), err)
	}
}
