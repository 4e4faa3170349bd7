package winenv

import "fmt"

// Responder scripts the network's side of a dialogue — the pseudo-C2
// plug-in point (package c2 provides the scenario-driven
// implementation). All methods are consulted only after blackholes and
// vaccine registrations have been applied, so deployed vaccines
// override the scripted world.
//
// Responders may be stateful (beacon protocols, staged downloads).
// Mark and Rewind bracket that state for Snapshot/Reset: Mark returns
// an opaque token capturing the current dialogue state, Rewind restores
// it. Stateless responders can return nil and ignore the token.
type Responder interface {
	// ResolveHost decides a DNS query. handled=false falls through to
	// the default resolution (configured DNS entries, then a synthetic
	// stable address).
	ResolveHost(host string) (ip string, ok bool, handled bool)
	// AcceptConnect decides a connection attempt to a host:port target
	// or URL. handled=false falls through to the default (accept).
	AcceptConnect(target string) (ok bool, handled bool)
	// ObserveSend sees payload bytes transmitted on a connection, so
	// beacon protocols can match request bytes.
	ObserveSend(target string, data []byte)
	// Payload produces up to want response bytes for a recv/read on a
	// connection. handled=false falls through to the default synthetic
	// payload.
	Payload(target string, want int) (data []byte, handled bool)
	// Mark captures the responder's dialogue state; Rewind restores it.
	Mark() any
	Rewind(mark any)
}

// ResolveVerdict is a resolve hook's decision on a DNS query.
type ResolveVerdict int

// Resolve hook verdicts.
const (
	// VerdictNone lets the query proceed to the next authority.
	VerdictNone ResolveVerdict = iota
	// VerdictResolve forces the query to succeed (sinkhole
	// registration: the domain now "exists").
	VerdictResolve
	// VerdictRefuse forces the query to fail (DNS sinkhole: NXDOMAIN).
	VerdictRefuse
)

// ResolveHook inspects a DNS query before the responder and default
// resolution. The vaccine daemon uses it to sinkhole partial-static
// domain patterns (§V's interception, lifted to the DNS path).
type ResolveHook func(host string) ResolveVerdict

// Network simulates the reachable network from a host. By default every
// target resolves and connects (malware C&C traffic should be observable
// in the normal run); individual targets can be blackholed, domains can
// be force-registered (killswitch vaccination), and a Responder can
// script request/response dialogues.
type Network struct {
	env *Env
	// dns maps hostname -> IP. Unknown hostnames resolve to a synthetic
	// address unless blackholed.
	dns map[string]string
	// blackholed targets fail to resolve/connect (DNS sinkhole).
	blackholed map[string]bool
	// registered domains always resolve, overriding the responder's
	// world — the killswitch-registration vaccine.
	registered map[string]bool
	// resolveHooks run before the responder; the vaccine daemon's
	// pattern sinkholes live here.
	resolveHooks []ResolveHook
	responder    Responder
	nextSocket   Handle
	sockets      map[Handle]string // socket -> connected target
}

// Net returns the environment's network simulation, creating it on first
// use.
func (e *Env) Net() *Network {
	if e.reads != nil {
		e.reads.net = true
	}
	if e.net == nil {
		e.net = &Network{
			env:        e,
			dns:        make(map[string]string),
			blackholed: make(map[string]bool),
			registered: make(map[string]bool),
			sockets:    make(map[Handle]string),
			nextSocket: 0x1000,
		}
	}
	return e.net
}

// Blackhole makes a hostname or host:port target unreachable — the
// DNS-sinkhole deployment of a block-access domain vaccine.
func (n *Network) Blackhole(target string) {
	n.env.noteNetEntry(netBlackhole, target)
	n.blackholed[target] = true
}

// Unblackhole removes a blackhole.
func (n *Network) Unblackhole(target string) {
	n.env.noteNetEntry(netBlackhole, target)
	delete(n.blackholed, target)
}

// Blackholed reports whether a target is blackholed.
func (n *Network) Blackholed(target string) bool { return n.blackholed[target] }

// Register makes a domain resolvable regardless of the scripted world —
// the killswitch-registration deployment of a simulate-presence domain
// vaccine (register the killswitch, and the malware that checks it
// believes it must stand down).
func (n *Network) Register(domain string) {
	n.env.noteNetEntry(netRegistered, domain)
	n.registered[domain] = true
}

// Deregister removes a forced registration.
func (n *Network) Deregister(domain string) {
	n.env.noteNetEntry(netRegistered, domain)
	delete(n.registered, domain)
}

// Registered reports whether a domain is force-registered.
func (n *Network) Registered(domain string) bool { return n.registered[domain] }

// AddDNS maps a hostname to an address.
func (n *Network) AddDNS(host, ip string) {
	n.env.noteNetEntry(netDNS, host)
	n.dns[host] = ip
}

// SetResponder plugs a scripted dialogue behind the network. A nil
// responder restores the default always-succeed behaviour.
func (n *Network) SetResponder(r Responder) { n.responder = r }

// HasResponder reports whether a scripted responder is attached.
func (n *Network) HasResponder() bool { return n.responder != nil }

// AddResolveHook registers a DNS interception hook (vaccine daemon).
func (n *Network) AddResolveHook(h ResolveHook) {
	n.resolveHooks = append(n.resolveHooks, h)
}

// ResolveHookCount returns the number of installed resolve hooks.
func (n *Network) ResolveHookCount() int { return len(n.resolveHooks) }

// Resolve performs a DNS lookup. Authority order: blackholes (vaccine),
// forced registrations (vaccine), resolve hooks (vaccine daemon),
// responder (scripted world), configured DNS, synthetic success.
func (n *Network) Resolve(host string) (string, bool) {
	if n.blackholed[host] {
		return "", false
	}
	if n.registered[host] {
		return n.addrFor(host), true
	}
	for _, h := range n.resolveHooks {
		switch h(host) {
		case VerdictResolve:
			return n.addrFor(host), true
		case VerdictRefuse:
			return "", false
		}
	}
	if n.responder != nil {
		if ip, ok, handled := n.responder.ResolveHost(host); handled {
			if !ok {
				return "", false
			}
			if ip == "" {
				ip = n.addrFor(host)
			}
			return ip, true
		}
	}
	return n.addrFor(host), true
}

// addrFor returns the configured or synthetic stable address of a host.
func (n *Network) addrFor(host string) string {
	if ip, ok := n.dns[host]; ok {
		return ip
	}
	// Synthesize a stable fake address so C&C domains "resolve".
	return fmt.Sprintf("10.%d.%d.%d",
		byte(len(host)*7), byte(hashString(host)), byte(hashString(host)>>8))
}

// accepts decides a connection attempt, consulting the responder after
// the vaccine layers. Force-registered hosts accept (the sinkhole
// listens but serves nothing).
func (n *Network) accepts(target string) bool {
	if n.blackholed[target] {
		return false
	}
	if n.registered[target] || n.registered[hostOf(target)] {
		return true
	}
	if n.responder != nil {
		if ok, handled := n.responder.AcceptConnect(target); handled {
			return ok
		}
	}
	return true
}

// hostOf strips the :port suffix of a host:port target.
func hostOf(target string) string {
	for i := len(target) - 1; i >= 0; i-- {
		if target[i] == ':' {
			return target[:i]
		}
	}
	return target
}

// SendPayload transmits concrete bytes on a socket, exposing them to
// the responder's dialogue matching (beacon protocols).
func (n *Network) SendPayload(s Handle, data []byte) bool {
	target, ok := n.sockets[s]
	if !ok {
		return false
	}
	if n.responder != nil {
		n.responder.ObserveSend(target, data)
	}
	return true
}

// RecvPayload asks the scripted responder for up to want response
// bytes on a socket. handled=false means no responder answered and the
// caller should fall back to its default payload (the legacy synthetic
// bytes), keeping unscripted runs byte-identical.
func (n *Network) RecvPayload(s Handle, want int) (data []byte, ok, handled bool) {
	target, bound := n.sockets[s]
	if !bound {
		return nil, false, true
	}
	if n.responder == nil {
		return nil, false, false
	}
	data, handled = n.responder.Payload(target, want)
	if !handled {
		return nil, false, false
	}
	if len(data) > want {
		data = data[:want]
	}
	return data, true, true
}

// BindConnect connects a caller-allocated socket handle to a target.
func (n *Network) BindConnect(s Handle, target string) bool {
	if !n.accepts(target) {
		return false
	}
	if len(n.env.snaps) > 0 {
		n.env.noteSocket(s)
	}
	n.sockets[s] = target
	return true
}

// HTTPGet simulates fetching a URL, returning a request handle.
func (n *Network) HTTPGet(url string) (Handle, bool) {
	if !n.accepts(url) {
		return InvalidHandle, false
	}
	s := n.nextSocket
	n.nextSocket += 4
	if len(n.env.snaps) > 0 {
		n.env.noteSocket(s)
	}
	n.sockets[s] = url
	return s, true
}

// CloseSocket releases a socket handle.
func (n *Network) CloseSocket(s Handle) {
	if len(n.env.snaps) > 0 {
		n.env.noteSocket(s)
	}
	delete(n.sockets, s)
}

// hashString is a small FNV-1a used to synthesize stable addresses.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
