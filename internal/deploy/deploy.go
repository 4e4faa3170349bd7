// Package deploy implements AUTOVAC's Phase-III (paper §V): delivering
// vaccines to end hosts. Static and algorithm-deterministic vaccines
// deploy by one-time direct injection (creating privilege-restricted
// resources, replaying identifier-generation slices once per host);
// partial-static vaccines deploy through a resident vaccine daemon that
// intercepts resource operations and matches identifiers against
// wildcard patterns.
package deploy

import (
	"fmt"
	"sort"
	"sync"

	"autovac/internal/determinism"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// fakeHandle is the plausible handle value daemon interceptions return.
const fakeHandle winenv.Handle = 0x00DD000C

// ResolveIdentifier produces the concrete identifier a vaccine protects
// on the given host: the static value, or the slice replay's output for
// algorithm-deterministic vaccines ("we collect these information ahead
// and run the captured program slice", §V).
func ResolveIdentifier(env *winenv.Env, v *vaccine.Vaccine, seed uint64) (string, error) {
	switch v.Class {
	case determinism.Static:
		return v.Identifier, nil
	case determinism.AlgorithmDeterministic:
		if v.Slice == nil {
			return "", fmt.Errorf("deploy: %s: missing slice", v.ID)
		}
		// Replay rewinds its own side effects, so the live host is not
		// perturbed while computing the name.
		ident, err := v.Slice.Replay(env, seed)
		if err != nil {
			return "", fmt.Errorf("deploy: %s: %w", v.ID, err)
		}
		return ident, nil
	default:
		return "", fmt.Errorf("deploy: %s: %s identifiers resolve per-operation in the daemon", v.ID, v.Class)
	}
}

// injectDomain deploys a domain vaccine into the host's DNS world.
// Domain resources have no namespace entry to plant; the two polarities
// translate to the two network countermeasures: SimulatePresence
// registers the domain (the killswitch-registration vaccine — the
// domain now "exists" and the malware that checks it stands down),
// BlockAccess sinkholes it (resolution and connection fail, cutting the
// C2 channel).
func injectDomain(env *winenv.Env, pol vaccine.Polarity, ident string) {
	if pol == vaccine.SimulatePresence {
		env.Net().Register(ident)
	} else {
		env.Net().Blackhole(ident)
	}
}

// removeDomain undoes injectDomain.
func removeDomain(env *winenv.Env, pol vaccine.Polarity, ident string) {
	if pol == vaccine.SimulatePresence {
		env.Net().Deregister(ident)
	} else {
		env.Net().Unblackhole(ident)
	}
}

// Daemon is the resident vaccine service (§V "Vaccine Daemon"): it
// intercepts resource operations on the host, matches identifiers
// against partial-static patterns, and periodically re-generates
// algorithm-deterministic identifiers when host facts change.
//
// Daemon methods are safe for concurrent use.
type Daemon struct {
	mu   sync.Mutex
	env  *winenv.Env
	seed uint64
	// patterned holds the daemon-matched vaccines, indexed by resource
	// kind so an operation only scans patterns of its own namespace.
	patterned map[winenv.ResourceKind][]vaccine.Vaccine
	// replayed holds the algorithm-deterministic vaccines the daemon
	// keeps fresh, with their last resolved identifiers.
	replayed map[string]string // vaccine ID -> identifier
	byID     map[string]vaccine.Vaccine
	// intercepts counts hook decisions, for the overhead evaluation.
	intercepts   int
	inspected    int
	installed    bool
	netInstalled bool
}

// NewDaemon creates a daemon bound to a host environment.
func NewDaemon(env *winenv.Env, seed uint64) *Daemon {
	return &Daemon{
		env:       env,
		seed:      seed,
		patterned: make(map[winenv.ResourceKind][]vaccine.Vaccine),
		replayed:  make(map[string]string),
		byID:      make(map[string]vaccine.Vaccine),
	}
}

// Install registers a vaccine with the daemon. Partial-static vaccines
// become interception patterns; algorithm-deterministic vaccines are
// resolved and injected, and re-resolved on Refresh; static vaccines
// are injected directly.
func (d *Daemon) Install(v vaccine.Vaccine) error {
	if err := v.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.byID[v.ID] = v
	switch v.Class {
	case determinism.PartialStatic:
		d.patterned[v.Resource] = append(d.patterned[v.Resource], v)
		if v.Resource == winenv.KindDomain {
			// Domain operations bypass env.Do, so patterned domain
			// vaccines intercept on the DNS path instead.
			d.ensureNetHook()
		} else {
			d.ensureHook()
		}
		return nil
	case determinism.AlgorithmDeterministic:
		ident, err := ResolveIdentifier(d.env, &v, d.seed)
		if err != nil {
			return err
		}
		d.replayed[v.ID] = ident
		d.injectConcrete(v, ident)
		return nil
	default:
		ident, err := ResolveIdentifier(d.env, &v, d.seed)
		if err != nil {
			return err
		}
		d.injectConcrete(v, ident)
		return nil
	}
}

// injectConcrete plants a concrete resource for a vaccine, the
// one-time direct injection: SimulatePresence plants the marker with
// an ACL that prevents the malware from deleting or overwriting it;
// BlockAccess plants a super-user-owned placeholder that refuses every
// operation, the §VI-D sdra64.exe strategy.
func (d *Daemon) injectConcrete(v vaccine.Vaccine, ident string) {
	if v.Resource == winenv.KindDomain {
		injectDomain(d.env, v.Polarity, ident)
		return
	}
	res := winenv.Resource{Kind: v.Resource, Name: ident, Owner: "vaccine"}
	if v.Polarity == vaccine.BlockAccess {
		res.ACL = winenv.DenyAll()
	} else {
		res.ACL = winenv.DenyOps(winenv.OpDelete, winenv.OpWrite)
	}
	d.env.Inject(res)
}

// ensureHook registers the daemon's single interception hook once.
func (d *Daemon) ensureHook() {
	if d.installed {
		return
	}
	d.installed = true
	d.env.AddHook(d.intercept)
}

// ensureNetHook registers the daemon's DNS interception hook once.
func (d *Daemon) ensureNetHook() {
	if d.netInstalled {
		return
	}
	d.netInstalled = true
	d.env.Net().AddResolveHook(d.interceptResolve)
}

// interceptResolve is the daemon's DNS hook: patterned domain vaccines
// sinkhole (BlockAccess → NXDOMAIN) or force-register (SimulatePresence
// → the name exists) matching queries.
func (d *Daemon) interceptResolve(host string) winenv.ResolveVerdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inspected++
	for i := range d.patterned[winenv.KindDomain] {
		v := &d.patterned[winenv.KindDomain][i]
		if !determinism.MatchPattern(v.Pattern, host) {
			continue
		}
		d.intercepts++
		if v.Polarity == vaccine.SimulatePresence {
			return winenv.VerdictResolve
		}
		return winenv.VerdictRefuse
	}
	return winenv.VerdictNone
}

// intercept is the daemon's resource-operation hook: it resolves the
// operation's identifier and answers with the predefined result when a
// partial-static pattern matches (§V: "If the daemon monitors that a
// resource identifier matches with our partial static vaccine, it will
// return the predefined result to stop the malware execution").
func (d *Daemon) intercept(req winenv.Request) *winenv.Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inspected++
	kindPatterns := d.patterned[req.Kind]
	for i := range kindPatterns {
		v := &kindPatterns[i]
		if !determinism.MatchPattern(v.Pattern, req.Name) {
			continue
		}
		d.intercepts++
		if v.Polarity == vaccine.BlockAccess {
			return &winenv.Result{Err: winenv.ErrAccessDenied}
		}
		// Simulate presence.
		switch req.Op {
		case winenv.OpCreate:
			return &winenv.Result{OK: true, Err: winenv.ErrAlreadyExists, Handle: fakeHandle}
		case winenv.OpOpen, winenv.OpQuery, winenv.OpRead:
			return &winenv.Result{OK: true, Handle: fakeHandle}
		default:
			return &winenv.Result{Err: winenv.ErrAccessDenied}
		}
	}
	return nil
}

// Installed returns a snapshot of the installed vaccines, in
// deterministic ID order.
func (d *Daemon) Installed() []vaccine.Vaccine {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]vaccine.Vaccine, 0, len(d.byID))
	for _, v := range d.byID {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Has reports whether a vaccine ID is already installed.
func (d *Daemon) Has(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.byID[id]
	return ok
}

// InstallPack installs a batch of vaccines, as delivered by a fleet
// sync. Vaccine IDs are immutable: an ID the daemon already holds is
// skipped rather than reinstalled, so replayed full packs are
// idempotent. Vaccines that fail validation or identifier resolution
// are counted as failed and do not abort the batch (a pack generated
// for the whole fleet may contain entries inapplicable to this host).
func (d *Daemon) InstallPack(vs []vaccine.Vaccine) (installed, skipped, failed int) {
	for i := range vs {
		if d.Has(vs[i].ID) {
			skipped++
			continue
		}
		if err := d.Install(vs[i]); err != nil {
			failed++
			continue
		}
		installed++
	}
	return installed, skipped, failed
}

// Refresh re-resolves every algorithm-deterministic vaccine against the
// current host facts and re-injects those whose identifier changed
// ("our daemon process runs periodically to check whether the input has
// been changed and the vaccine needs to be re-generated", §V). It
// returns the number of re-generated vaccines.
func (d *Daemon) Refresh() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	changed := 0
	for id, old := range d.replayed {
		v := d.byID[id]
		ident, err := ResolveIdentifier(d.env, &v, d.seed)
		if err != nil {
			return changed, err
		}
		if ident == old {
			continue
		}
		if v.Resource == winenv.KindDomain {
			removeDomain(d.env, v.Polarity, old)
		} else {
			d.env.Remove(v.Resource, old)
		}
		d.injectConcrete(v, ident)
		d.replayed[id] = ident
		changed++
	}
	return changed, nil
}

// Stats returns (operations inspected, operations intercepted).
func (d *Daemon) Stats() (inspected, intercepted int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inspected, d.intercepts
}

// VaccineCount returns the number of installed vaccines.
func (d *Daemon) VaccineCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.byID)
}
