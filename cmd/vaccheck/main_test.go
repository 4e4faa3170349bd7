package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/impact"
	"autovac/internal/isa"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winapi"
	"autovac/internal/winenv"
)

// realSliceVaccine extracts a genuine algorithm-deterministic slice
// from a synthetic sample and wraps it in a valid vaccine, the same
// shape Phase-II emits.
func realSliceVaccine(t *testing.T) vaccine.Vaccine {
	t.Helper()
	spec := &malware.Spec{Name: "vaccheck-algo", Category: malware.Worm,
		Behaviors: []malware.Behavior{{Kind: malware.BehAlgoMutex, ID: `Global\%s-9`}}}
	prog := malware.MustEmit(spec)
	tr, err := emu.Run(prog, winenv.New(winenv.DefaultIdentity()),
		emu.Options{Seed: 7, Profile: true, Registry: winapi.Standard()})
	if err != nil {
		t.Fatal(err)
	}
	calls := tr.CallsTo("CreateMutexA")
	if len(calls) == 0 {
		t.Fatal("no CreateMutexA call in the sample run")
	}
	sl, err := determinism.Extract(prog, tr, calls[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	return vaccine.Vaccine{
		ID: "vaccheck/mutex/0", Sample: "vaccheck-algo",
		Resource: winenv.KindMutex, Identifier: calls[0].Identifier,
		Class: determinism.AlgorithmDeterministic, Slice: sl,
		Op: "create", API: "CreateMutexA",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.VaccineDaemon,
	}
}

func writePackFile(t *testing.T, path string, p *vaccine.Pack) {
	t.Helper()
	// Marshal directly: the corrupted pack must reach disk unvalidated,
	// exactly as a tampered or buggy producer would write it.
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVaccheckAcceptsGenuinePack(t *testing.T) {
	v := realSliceVaccine(t)
	path := filepath.Join(t.TempDir(), "good.json")
	writePackFile(t, path, &vaccine.Pack{Generator: "test", Vaccines: []vaccine.Vaccine{v}})
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("genuine pack rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 vaccine(s) checked, 0 failure(s)") {
		t.Errorf("summary missing: %q", out.String())
	}
}

func TestVaccheckRejectsCorruptedSlice(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(v *vaccine.Vaccine)
	}{
		{
			name: "backward jump spliced into the slice",
			corrupt: func(v *vaccine.Vaccine) {
				p := v.Slice.Program
				p.Instrs[0].Label = "top"
				p.Instrs = append(p.Instrs[:len(p.Instrs)-1],
					isa.Instr{Op: isa.JMP, Target: "top"},
					isa.Instr{Op: isa.HALT})
			},
		},
		{
			name: "result address outside mapped memory",
			corrupt: func(v *vaccine.Vaccine) {
				v.Slice.ResultAddr = 0xDEAD0000
			},
		},
		{
			name: "resource API spliced into the slice",
			corrupt: func(v *vaccine.Vaccine) {
				p := v.Slice.Program
				p.Instrs = append(p.Instrs[:len(p.Instrs)-1],
					isa.Instr{Op: isa.CALLAPI, API: "CreateMutexA", NArgs: 1},
					isa.Instr{Op: isa.HALT})
			},
		},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			v := realSliceVaccine(t)
			tc.corrupt(&v)
			path := filepath.Join(t.TempDir(), "bad.json")
			writePackFile(t, path, &vaccine.Pack{Generator: "test", Vaccines: []vaccine.Vaccine{v}})
			var out bytes.Buffer
			err := run([]string{path}, &out)
			if err == nil {
				t.Fatalf("corrupted pack accepted:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "FAIL") {
				t.Errorf("no FAIL line in output: %q", out.String())
			}
		})
	}
}

// TestVaccheckReportsAllFailures checks one bad vaccine does not mask
// the others: both failures of a two-bad-one-good pack are reported.
func TestVaccheckReportsAllFailures(t *testing.T) {
	good := realSliceVaccine(t)
	bad1 := realSliceVaccine(t)
	bad1.ID = "vaccheck/mutex/1"
	bad1.Slice.ResultAddr = 0xDEAD0000
	bad2 := realSliceVaccine(t)
	bad2.ID = "vaccheck/mutex/2"
	bad2.Slice = nil // record-invalid: algorithm-deterministic without slice
	path := filepath.Join(t.TempDir(), "mixed.json")
	writePackFile(t, path, &vaccine.Pack{Generator: "test",
		Vaccines: []vaccine.Vaccine{good, bad1, bad2}})
	var out bytes.Buffer
	if err := run([]string{path}, &out); err == nil {
		t.Fatal("mixed pack accepted")
	}
	if !strings.Contains(out.String(), "3 vaccine(s) checked, 2 failure(s)") {
		t.Errorf("summary wrong: %q", out.String())
	}
	if got := strings.Count(out.String(), "FAIL"); got != 2 {
		t.Errorf("want 2 FAIL lines, got %d:\n%s", got, out.String())
	}
}

// domainTestVaccine is a well-formed static sinkhole vaccine.
func domainTestVaccine(id, identifier string) vaccine.Vaccine {
	return vaccine.Vaccine{
		ID: id, Sample: "netks-0001",
		Resource: winenv.KindDomain, Identifier: identifier,
		Class: determinism.Static, Op: "open", API: "gethostbyname",
		Effect: impact.Full, Polarity: vaccine.SimulatePresence,
		Delivery: vaccine.DirectInjection,
	}
}

func TestVaccheckDomainSinkholeRules(t *testing.T) {
	cases := []struct {
		name string
		v    vaccine.Vaccine
		ok   bool
	}{
		{"killswitch domain", domainTestVaccine("d/0", "iuqerfsod.example"), true},
		{"host:port target", domainTestVaccine("d/1", "cc.botnet.example:8080"), true},
		{"benign domain", domainTestVaccine("d/2", "update.microsoft.com"), false},
		{"benign sub-domain", domainTestVaccine("d/3", "dl.download.windowsupdate.com"), false},
		{"unqualified name", domainTestVaccine("d/4", "localhost"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pack.json")
			writePackFile(t, path, &vaccine.Pack{Generator: "test",
				Vaccines: []vaccine.Vaccine{tc.v}})
			var out bytes.Buffer
			err := run([]string{path}, &out)
			if tc.ok && err != nil {
				t.Fatalf("good domain vaccine rejected: %v\n%s", err, out.String())
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("bad domain vaccine accepted:\n%s", out.String())
				}
				if !strings.Contains(out.String(), "sinkhole rule") {
					t.Errorf("failure not attributed to the sinkhole rule: %q", out.String())
				}
			}
		})
	}
}

func TestVaccheckDomainPatternRule(t *testing.T) {
	v := domainTestVaccine("d/5", "")
	v.Class = determinism.PartialStatic
	v.Pattern = "*.windowsupdate.microsoft.com"
	v.Delivery = vaccine.VaccineDaemon
	path := filepath.Join(t.TempDir(), "pack.json")
	writePackFile(t, path, &vaccine.Pack{Generator: "test", Vaccines: []vaccine.Vaccine{v}})
	var out bytes.Buffer
	if err := run([]string{path}, &out); err == nil {
		t.Fatalf("benign-zone pattern accepted:\n%s", out.String())
	}
}

func TestVaccheckQuietSuppressesFailLines(t *testing.T) {
	v := realSliceVaccine(t)
	v.Slice.ResultAddr = 0xDEAD0000
	path := filepath.Join(t.TempDir(), "bad.json")
	writePackFile(t, path, &vaccine.Pack{Generator: "test", Vaccines: []vaccine.Vaccine{v}})
	var out bytes.Buffer
	if err := run([]string{"-q", path}, &out); err == nil {
		t.Fatal("corrupted pack accepted")
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("-q still printed FAIL lines: %q", out.String())
	}
}
