package exclusive

import (
	"testing"

	"autovac/internal/malware"
	"autovac/internal/winenv"
)

func TestWhitelistPreloaded(t *testing.T) {
	ix := NewIndex()
	if ix.Exclusive(winenv.KindLibrary, "uxtheme.dll") {
		t.Error("uxtheme.dll reported exclusive")
	}
	if ix.Exclusive(winenv.KindLibrary, "UXTHEME.DLL") {
		t.Error("case-insensitive lookup failed")
	}
	if ix.Exclusive(winenv.KindRegistry, `HKLM\Software\Microsoft\Windows\CurrentVersion\Run`) {
		t.Error("Run key reported exclusive")
	}
	if !ix.Exclusive(winenv.KindMutex, "_AVIRA_2109") {
		t.Error("malware mutex reported non-exclusive by whitelist alone")
	}
	if ix.Size() == 0 {
		t.Error("whitelist empty")
	}
}

func TestAddAndBenignUser(t *testing.T) {
	ix := NewIndex()
	ix.Add(winenv.KindMutex, "FirefoxSingletonMutex", "benign-firefox")
	if ix.Exclusive(winenv.KindMutex, "firefoxsingletonmutex") {
		t.Error("added identifier still exclusive")
	}
	u, ok := ix.BenignUser(winenv.KindMutex, "FirefoxSingletonMutex")
	if !ok || u != "benign-firefox" {
		t.Errorf("BenignUser = %q %v", u, ok)
	}
	// First user wins.
	ix.Add(winenv.KindMutex, "FirefoxSingletonMutex", "benign-other")
	if u, _ := ix.BenignUser(winenv.KindMutex, "FirefoxSingletonMutex"); u != "benign-firefox" {
		t.Errorf("first user overwritten: %q", u)
	}
}

func TestBuildIndexFromBenignCorpus(t *testing.T) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(benign, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Benign single-instance mutexes are indexed.
	for _, m := range []string{"FirefoxSingletonMutex", "SkypeSingleInstance", "MSCTF.Shared.MUTEX.001"} {
		if ix.Exclusive(winenv.KindMutex, m) {
			t.Errorf("benign mutex %q exclusive", m)
		}
	}
	// Benign windows and registry keys are indexed.
	if ix.Exclusive(winenv.KindWindow, "MozillaWindowClass") {
		t.Error("benign window class exclusive")
	}
	if ix.Exclusive(winenv.KindRegistry, `HKCU\Software\Google\Chrome`) {
		t.Error("benign registry key exclusive")
	}
	// Benign Run values are indexed (registry value path form).
	if ix.Exclusive(winenv.KindRegistry, `HKLM\Software\Microsoft\Windows\CurrentVersion\Run\Skype`) {
		t.Error("benign Run value exclusive")
	}
	// Malware identifiers remain exclusive.
	for _, m := range []string{"_AVIRA_2109", "!VoqA.I4", `Global\WIN-AUTOVAC01-7`} {
		if !ix.Exclusive(winenv.KindMutex, m) {
			t.Errorf("malware mutex %q not exclusive", m)
		}
	}
	if !ix.Exclusive(winenv.KindFile, `C:\Windows\system32\sdra64.exe`) {
		t.Error("sdra64.exe not exclusive")
	}
}

func TestExclusivePattern(t *testing.T) {
	ix := NewIndex()
	ix.Add(winenv.KindMutex, "WORMX-cafe", "benign-oddball")
	if ix.ExclusivePattern(winenv.KindMutex, "WORMX-*") {
		t.Error("pattern overlapping benign identifier reported exclusive")
	}
	if !ix.ExclusivePattern(winenv.KindMutex, "OTHER-*") {
		t.Error("non-overlapping pattern reported non-exclusive")
	}
}

func TestBuildIndexDeterministic(t *testing.T) {
	benign, _ := malware.BenignCorpus()
	a, err := BuildIndex(benign[:10], 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildIndex(benign[:10], 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() {
		t.Errorf("index sizes differ: %d vs %d", a.Size(), b.Size())
	}
}

func TestDomainExclusiveness(t *testing.T) {
	ix := NewIndex()
	// Benign-traffic allowlist blocks exact and sub-domain matches,
	// in any identifier spelling (bare host, host:port, URL).
	for _, id := range []string{
		"update.microsoft.com",
		"UPDATE.MICROSOFT.COM:443",
		"http://update.microsoft.com/v11/check",
		"dl.update.microsoft.com",
	} {
		if ix.Exclusive(winenv.KindDomain, id) {
			t.Errorf("benign domain %q reported exclusive", id)
		}
	}
	// Malware-exclusive domains stay exclusive.
	for _, id := range []string{
		"rv-cnf-gen.example:445",
		"iuqerfsodp9ifjaposdfjhgosurijfaewrwergwea.example",
		"microsoft.com.evil.example", // benign name as a NON-suffix
	} {
		if !ix.Exclusive(winenv.KindDomain, id) {
			t.Errorf("exclusive domain %q reported benign", id)
		}
	}
	// Profiled benign traffic joins the oracle.
	ix.Add(winenv.KindDomain, "telemetry.vendor.example:443", "officesuite")
	if ix.Exclusive(winenv.KindDomain, "telemetry.vendor.example") {
		t.Error("profiled benign domain reported exclusive")
	}
	if u, ok := ix.BenignUser(winenv.KindDomain, "api.telemetry.vendor.example"); !ok || u != "officesuite" {
		t.Errorf("sub-domain BenignUser = %q, %v", u, ok)
	}
}
