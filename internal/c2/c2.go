// Package c2 implements a scriptable pseudo-C2 responder: a declarative
// Scenario describes the network world a malware sample expects — which
// C2 domains exist, which killswitch domains do not, beacon
// request/response dialogues, and staged payload fetches — and a
// stateful Responder plugs that script in behind winenv.Network.
//
// The point (following the pseudo-C2 literature in PAPERS.md) is that
// many samples withhold their resource-sensitive payload until C2
// interaction succeeds. A passive always-succeed network stub never
// exercises those paths; a scripted responder does, which is what lets
// Phase-I observe network identifiers as candidate vaccine material
// (winenv.KindDomain) and Phase-II measure the impact of denying them.
package c2

import (
	"bytes"
	"fmt"
	"strings"
)

// Scenario declares a pseudo-C2 world. The zero value is a world where
// every unknown name resolves (indistinguishable from the default
// network); fields carve out scripted behaviour.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Domains exist in the scripted world: they resolve and accept
	// connections. Hostnames, lower-case.
	Domains []string
	// Killswitch domains do NOT exist: resolution fails with
	// WSAHOST_NOT_FOUND until someone registers them — which is exactly
	// what the simulate-presence domain vaccine does.
	Killswitch []string
	// DGAPatterns are simple glob patterns (one '*' wildcard, e.g.
	// "*.dga-seed.example") matching the algorithmically generated
	// names the family's DGA produces. Matching names resolve.
	DGAPatterns []string
	// StrictResolve makes unknown hostnames fail to resolve. When
	// false (default) unknown names fall through to the network's
	// default synthetic resolution, so legacy samples keep working
	// inside a scenario run.
	StrictResolve bool
	// Beacons script request/response dialogues on connected sockets.
	Beacons []Beacon
	// Stages script staged payload fetches over HTTP.
	Stages []Stage
}

// Beacon scripts one C2 check-in dialogue: when the sample sends a
// request matching Expect on a connection to Target, the responder
// replies with Reply.
type Beacon struct {
	// Target is the host:port the beacon protocol runs on.
	Target string
	// Expect is the request prefix that unlocks the reply; nil accepts
	// any request.
	Expect []byte
	// Reply is the scripted C2 response.
	Reply []byte
}

// Stage scripts a staged payload fetch: a read from URL returns Body,
// but only after the sample has completed MinBeacons successful beacon
// exchanges (0 = immediately). This models droppers that check in
// before fetching their second stage.
type Stage struct {
	URL string
	// Body is served byte-exactly, across repeated reads.
	Body []byte
	// MinBeacons gates the stage on prior beacon exchanges.
	MinBeacons int
}

// Validate checks the scenario for internal consistency.
func (s *Scenario) Validate() error {
	seen := make(map[string]bool)
	for _, d := range append(append([]string{}, s.Domains...), s.Killswitch...) {
		if d == "" {
			return fmt.Errorf("c2: empty domain in scenario %q", s.Name)
		}
		if strings.ContainsAny(d, " \t\\") {
			return fmt.Errorf("c2: malformed domain %q in scenario %q", d, s.Name)
		}
		if seen[d] {
			return fmt.Errorf("c2: domain %q listed twice in scenario %q", d, s.Name)
		}
		seen[d] = true
	}
	for _, p := range s.DGAPatterns {
		if strings.Count(p, "*") != 1 {
			return fmt.Errorf("c2: DGA pattern %q must contain exactly one '*'", p)
		}
	}
	for _, st := range s.Stages {
		if st.URL == "" {
			return fmt.Errorf("c2: stage with empty URL in scenario %q", s.Name)
		}
		if st.MinBeacons < 0 {
			return fmt.Errorf("c2: stage %q has negative MinBeacons", st.URL)
		}
	}
	for _, b := range s.Beacons {
		if b.Target == "" {
			return fmt.Errorf("c2: beacon with empty target in scenario %q", s.Name)
		}
	}
	return nil
}

// matchGlob matches s against a pattern containing exactly one '*'.
func matchGlob(pattern, s string) bool {
	i := strings.IndexByte(pattern, '*')
	if i < 0 {
		return pattern == s
	}
	prefix, suffix := pattern[:i], pattern[i+1:]
	return len(s) >= len(prefix)+len(suffix) &&
		strings.HasPrefix(s, prefix) && strings.HasSuffix(s, suffix)
}

// hostOf strips a scheme prefix, :port suffix, and path from a target,
// leaving the bare lower-case hostname.
func hostOf(target string) string {
	h := strings.ToLower(target)
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

// knowsHost classifies a bare hostname against the scenario.
func (s *Scenario) knowsHost(host string) (exists, scripted bool) {
	for _, d := range s.Killswitch {
		if strings.EqualFold(d, host) {
			return false, true
		}
	}
	for _, d := range s.Domains {
		if strings.EqualFold(d, host) {
			return true, true
		}
	}
	for _, p := range s.DGAPatterns {
		if matchGlob(strings.ToLower(p), host) {
			return true, true
		}
	}
	return false, false
}

// respState is the responder's mutable dialogue state, kept in one
// struct so Mark/Rewind can copy it wholesale.
type respState struct {
	// lastSent holds the most recent request bytes per target.
	lastSent map[string][]byte
	// exchanges counts completed beacon replies.
	exchanges int
	// stageOffsets tracks read progress per stage URL.
	stageOffsets map[string]int
}

func (st *respState) clone() *respState {
	c := &respState{
		lastSent:     make(map[string][]byte, len(st.lastSent)),
		exchanges:    st.exchanges,
		stageOffsets: make(map[string]int, len(st.stageOffsets)),
	}
	for k, v := range st.lastSent {
		c.lastSent[k] = append([]byte(nil), v...)
	}
	for k, v := range st.stageOffsets {
		c.stageOffsets[k] = v
	}
	return c
}

// Responder is the stateful winenv.Responder implementation of a
// Scenario. Each emulated host should get its own Responder (they are
// not safe for concurrent use); the Scenario itself is read-only and
// shareable.
type Responder struct {
	sc    *Scenario
	state *respState
}

// NewResponder creates a fresh responder for the scenario.
func (s *Scenario) NewResponder() *Responder {
	return &Responder{
		sc: s,
		state: &respState{
			lastSent:     make(map[string][]byte),
			stageOffsets: make(map[string]int),
		},
	}
}

// Scenario returns the script this responder plays.
func (r *Responder) Scenario() *Scenario { return r.sc }

// Exchanges returns the number of completed beacon replies.
func (r *Responder) Exchanges() int { return r.state.exchanges }

// ResolveHost implements winenv.Responder.
func (r *Responder) ResolveHost(host string) (ip string, ok, handled bool) {
	exists, scripted := r.sc.knowsHost(hostOf(host))
	if scripted {
		return "", exists, true
	}
	if r.sc.StrictResolve {
		return "", false, true
	}
	return "", false, false
}

// AcceptConnect implements winenv.Responder.
func (r *Responder) AcceptConnect(target string) (ok, handled bool) {
	exists, scripted := r.sc.knowsHost(hostOf(target))
	if scripted {
		return exists, true
	}
	if r.sc.StrictResolve {
		return false, true
	}
	return false, false
}

// ObserveSend implements winenv.Responder: it records the request so
// beacon matching can inspect it.
func (r *Responder) ObserveSend(target string, data []byte) {
	r.state.lastSent[target] = append([]byte(nil), data...)
}

// Payload implements winenv.Responder: beacon replies and staged
// bodies. Unscripted targets report handled=false so the network falls
// back to its default synthetic payload.
func (r *Responder) Payload(target string, want int) (data []byte, handled bool) {
	for i := range r.sc.Beacons {
		b := &r.sc.Beacons[i]
		if !strings.EqualFold(b.Target, target) {
			continue
		}
		if b.Expect != nil && !bytes.HasPrefix(r.state.lastSent[target], b.Expect) {
			// Wrong handshake: the C2 hangs up. An empty reply is
			// distinguishable from the legacy synthetic bytes.
			return nil, true
		}
		r.state.exchanges++
		reply := b.Reply
		if len(reply) > want {
			reply = reply[:want]
		}
		return append([]byte(nil), reply...), true
	}
	for i := range r.sc.Stages {
		st := &r.sc.Stages[i]
		if !strings.EqualFold(st.URL, target) {
			continue
		}
		if r.state.exchanges < st.MinBeacons {
			return nil, true // stage locked: nothing to serve yet
		}
		off := r.state.stageOffsets[st.URL]
		if off >= len(st.Body) {
			return nil, true // EOF
		}
		end := off + want
		if end > len(st.Body) {
			end = len(st.Body)
		}
		r.state.stageOffsets[st.URL] = end
		return append([]byte(nil), st.Body[off:end]...), true
	}
	return nil, false
}

// Mark implements winenv.Responder: it captures the dialogue state.
func (r *Responder) Mark() any { return r.state.clone() }

// Rewind implements winenv.Responder: it restores a Mark'd state.
func (r *Responder) Rewind(mark any) {
	if st, ok := mark.(*respState); ok {
		// Clone again so repeated rewinds to the same mark stay pristine.
		r.state = st.clone()
	}
}
