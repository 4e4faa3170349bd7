// Package exclusive implements AUTOVAC's exclusiveness analysis
// (paper §IV-A): deciding whether a candidate resource identifier is
// unique to the malware or also used by benign software, in which case
// a vaccine built on it would break legitimate programs.
//
// The paper answers this with search-engine queries ("Googling the
// Internet"); this reproduction builds the equivalent oracle locally by
// profiling the benign-software corpus in the emulator and indexing
// every resource identifier it touches, plus a static whitelist of
// well-known system resources. The decision procedure — reject a
// candidate whose identifier is associated with benign software — is
// identical.
package exclusive

import (
	"fmt"
	"strings"

	"autovac/internal/determinism"
	"autovac/internal/emu"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// Index answers exclusiveness queries.
type Index struct {
	// used maps resource kind -> canonical identifier -> first benign
	// user (for diagnostics).
	used map[winenv.ResourceKind]map[string]string
}

// NewIndex returns an empty index preloaded with the static whitelist.
func NewIndex() *Index {
	ix := &Index{used: make(map[winenv.ResourceKind]map[string]string)}
	ix.addWhitelist()
	return ix
}

// addWhitelist seeds the well-known system resources every Windows
// machine exposes — the "pre-built whitelist" of §VI-F.
func (ix *Index) addWhitelist() {
	add := func(kind winenv.ResourceKind, names ...string) {
		for _, n := range names {
			ix.Add(kind, n, "whitelist")
		}
	}
	add(winenv.KindLibrary,
		"kernel32.dll", "ntdll.dll", "user32.dll", "advapi32.dll",
		"ws2_32.dll", "wininet.dll", "uxtheme.dll", "msvcrt.dll",
		"shell32.dll", "ole32.dll", "gdi32.dll", "comctl32.dll")
	add(winenv.KindProcess,
		"explorer.exe", "svchost.exe", "winlogon.exe", "services.exe",
		"lsass.exe", "csrss.exe", "smss.exe")
	add(winenv.KindFile,
		`C:\Windows\system.ini`, `C:\Windows\win.ini`,
		`C:\Windows\system32\kernel32.dll`, `C:\Windows\system32\ntdll.dll`)
	add(winenv.KindRegistry,
		`HKLM\Software\Microsoft\Windows\CurrentVersion\Run`,
		`HKLM\Software\Microsoft\Windows\CurrentVersion\RunOnce`,
		`HKCU\Software\Microsoft\Windows\CurrentVersion\Run`,
		`HKLM\Software\Microsoft\Windows NT\CurrentVersion\Winlogon`,
		`HKLM\System\CurrentControlSet\Services`)
	add(winenv.KindService, "EventLog", "Dhcp", "Dnscache", "LanmanServer")
	add(winenv.KindDomain, vaccine.DefaultBenignDomains()...)
}

// Add records a benign use of an identifier.
func (ix *Index) Add(kind winenv.ResourceKind, identifier, user string) {
	m := ix.used[kind]
	if m == nil {
		m = make(map[string]string)
		ix.used[kind] = m
	}
	key := canonicalFor(kind, identifier)
	if _, ok := m[key]; !ok {
		m[key] = user
	}
}

// canonical normalizes identifiers the way the winenv namespaces do.
func canonical(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, "/", `\`))
}

// canonicalFor picks the kind's canonicalization: domains index under
// their bare hostname (slash rewriting would mangle URLs), everything
// else under the winenv namespace spelling.
func canonicalFor(kind winenv.ResourceKind, s string) string {
	if kind == winenv.KindDomain {
		return vaccine.DomainHost(s)
	}
	return canonical(s)
}

// Exclusive reports whether the identifier is NOT associated with
// benign software (and therefore usable as a vaccine). Domain
// identifiers also match by parent suffix: a benign entry for
// update.microsoft.com covers dl.update.microsoft.com, so DGA-looking
// sub-domains of benign zones never become vaccines.
func (ix *Index) Exclusive(kind winenv.ResourceKind, identifier string) bool {
	_, used := ix.benignUse(kind, identifier)
	return !used
}

// BenignUser returns the benign program first seen using an identifier.
func (ix *Index) BenignUser(kind winenv.ResourceKind, identifier string) (string, bool) {
	return ix.benignUse(kind, identifier)
}

// benignUse is the shared lookup behind Exclusive and BenignUser.
func (ix *Index) benignUse(kind winenv.ResourceKind, identifier string) (string, bool) {
	m := ix.used[kind]
	key := canonicalFor(kind, identifier)
	if u, ok := m[key]; ok {
		return u, true
	}
	if kind == winenv.KindDomain {
		// Walk parent suffixes: a.b.example → b.example → example.
		for i := strings.IndexByte(key, '.'); i >= 0; i = strings.IndexByte(key, '.') {
			key = key[i+1:]
			if u, ok := m[key]; ok {
				return u, true
			}
		}
	}
	return "", false
}

// ExclusivePattern reports whether no indexed benign identifier matches
// a '*'-wildcard pattern — the check partial-static vaccines need
// before a daemon starts intercepting by pattern.
func (ix *Index) ExclusivePattern(kind winenv.ResourceKind, pattern string) bool {
	for id := range ix.used[kind] {
		if determinism.MatchPattern(pattern, id) {
			return false
		}
	}
	return true
}

// Size returns the number of indexed identifiers across all kinds.
func (ix *Index) Size() int {
	n := 0
	for _, m := range ix.used {
		n += len(m)
	}
	return n
}

// BuildIndex profiles the benign corpus in the emulator and indexes
// every resource identifier benign software touches. The same seed
// yields the same index.
func BuildIndex(benign []*malware.Sample, seed uint64) (*Index, error) {
	ix := NewIndex()
	for _, s := range benign {
		env := winenv.New(winenv.DefaultIdentity())
		tr, err := emu.Run(s.Program, env, emu.Options{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("exclusive: profiling %s: %w", s.Name(), err)
		}
		for _, c := range tr.ResourceCalls() {
			if c.Identifier == "" {
				continue
			}
			kind, err := winenv.ParseKind(c.ResourceKind)
			if err != nil {
				continue
			}
			ix.Add(kind, c.Identifier, s.Name())
		}
	}
	return ix, nil
}
