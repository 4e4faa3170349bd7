package vaccine

import (
	"fmt"
	"strings"

	"autovac/internal/determinism"
	"autovac/internal/static"
	"autovac/internal/winenv"
)

// Verify is the distribution gate for one vaccine. It checks record
// consistency (Validate), then statically verifies the
// identifier-regeneration slice of an algorithm-deterministic vaccine
// (internal/static: the slice must terminate, stay inside mapped
// memory, balance its stack, and call only deterministic side-effect-
// free APIs), then applies the sinkhole rule to domain vaccines: the
// identifier must name a qualified host and must not cover benign
// traffic. Pack construction, fleet publication and cmd/vaccheck all
// apply it, so a vaccine one of them refuses reaches no host through
// another.
func (v *Vaccine) Verify() error {
	if err := v.Validate(); err != nil {
		return err
	}
	if v.Slice != nil {
		if err := static.VerifySlice(v.Slice.Program, v.Slice.ResultAddr, nil); err != nil {
			return fmt.Errorf("vaccine %s: %w", v.ID, err)
		}
	}
	if v.Resource == winenv.KindDomain {
		return v.sinkholeRule()
	}
	return nil
}

// Verify checks every vaccine in the pack with Vaccine.Verify. Packs
// must pass before being written to disk or published to a fleet
// registry.
func (p *Pack) Verify() error {
	for i := range p.Vaccines {
		if err := p.Vaccines[i].Verify(); err != nil {
			return err
		}
	}
	return nil
}

// sinkholeRule refuses a domain vaccine whose identifier or pattern
// covers benign traffic — registering or blackholing
// update.microsoft.com would break every host in the fleet — or does
// not name a qualified host.
func (v *Vaccine) sinkholeRule() error {
	id := v.Identifier
	if v.Class == determinism.PartialStatic {
		id = v.Pattern
	}
	// A pattern's wildcard stands for some concrete label; substitute a
	// placeholder so suffix matching still sees the zone it covers.
	probe := strings.ReplaceAll(id, "*", "x")
	if IsBenignDomain(probe) {
		return fmt.Errorf("vaccine %s: sinkhole rule: domain %q covers benign traffic", v.ID, id)
	}
	if !strings.Contains(DomainHost(probe), ".") {
		return fmt.Errorf("vaccine %s: sinkhole rule: %q is not a qualified hostname", v.ID, id)
	}
	return nil
}

// DefaultBenignDomains lists well-known benign-traffic domains that
// must never become vaccine material: sinkholing update.microsoft.com
// would break every machine's update path. Exclusiveness checks and
// the sinkhole rule match these by suffix, so sub-domains are covered
// too.
func DefaultBenignDomains() []string {
	return []string{
		"update.microsoft.com",
		"windowsupdate.microsoft.com",
		"download.windowsupdate.com",
		"time.windows.com",
		"crl.microsoft.com",
		"www.msftncsi.com",
		"dns.msftncsi.com",
		"ocsp.digicert.com",
	}
}

// IsBenignDomain reports whether a hostname (or host:port/URL target)
// is one of the default benign-traffic domains or a sub-domain of one.
func IsBenignDomain(target string) bool {
	host := DomainHost(target)
	for _, d := range DefaultBenignDomains() {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// DomainHost normalizes a domain identifier: lower-case bare hostname
// with scheme, path, and port stripped. URLs and host:port targets
// reduce to their hostname.
func DomainHost(s string) string {
	h := strings.ToLower(s)
	if i := strings.Index(h, "://"); i >= 0 {
		h = h[i+3:]
	}
	if i := strings.IndexByte(h, '/'); i >= 0 {
		h = h[:i]
	}
	if i := strings.LastIndexByte(h, ':'); i >= 0 {
		h = h[:i]
	}
	return h
}
