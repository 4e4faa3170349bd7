package winenv

import (
	"bytes"
	"slices"
)

// Snapshot captures an environment state for cheap repeated rewind,
// and is the one way to fork a host: it records nothing at capture time
// and journals undo entries only for state the run actually touches
// (first-touch copy-on-write), so resetting after a typical emulated
// execution undoes a handful of resources instead of rebuilding ~50
// maps. This is the arena primitive behind Phase-II's per-candidate
// re-executions (§IV-B) and per-host slice replays (§IV-C).
//
// Snapshots nest: Reset rewinds to the most recent (innermost) open
// snapshot only, and Close releases it. Journaling covers the resource
// namespaces, the handle table, sockets, hooks added after capture, the
// network's DNS/blackhole/registration tables and resolve hooks, the
// attached responder's dialogue state (via Responder.Mark/Rewind), and
// the scalar registers (identity, last-error, next handle). It does NOT
// cover test-configuration state mutated in place — hook truncation
// after ClearHooks, responder attachment itself — which experiment code
// changes only between runs.
type Snapshot struct {
	env *Env

	identity HostIdentity
	next     Handle
	lastErr  ErrorCode
	hooks    int

	hadNet        bool
	netNextSocket Handle
	netHooks      int
	respMark      any
	hadResponder  bool

	// resources maps first-touched namespace keys to their prior value
	// (nil = absent at capture). handles (the zero openHandle = absent),
	// sockets, and netEntries journal likewise.
	resources  map[resKey]*Resource
	handles    map[Handle]openHandle
	sockets    map[Handle]sockPrior
	netEntries map[netEntryKey]netEntryPrior
}

// resKey addresses one resource in its canonical spelling.
type resKey struct {
	kind ResourceKind
	key  string
}

// sockPrior is a socket's prior binding.
type sockPrior struct {
	target  string
	present bool
}

// netTable identifies one of the network's journaled tables.
type netTable int

const (
	netDNS netTable = iota
	netBlackhole
	netRegistered
)

// netEntryKey addresses one entry in one network table.
type netEntryKey struct {
	table netTable
	key   string
}

// netEntryPrior is a network table entry's prior state (value is the
// DNS address; blackhole/registered entries only use present).
type netEntryPrior struct {
	value   string
	present bool
}

// Snapshot opens a snapshot of the current state. Pair with Reset (as
// many times as needed) and a final Close.
func (e *Env) Snapshot() *Snapshot {
	s := &Snapshot{
		env:       e,
		identity:  e.identity,
		next:      e.next,
		lastErr:   e.lastErr,
		hooks:     len(e.hooks),
		resources: make(map[resKey]*Resource),
		handles:   make(map[Handle]openHandle),
	}
	if e.net != nil {
		s.hadNet = true
		s.netNextSocket = e.net.nextSocket
		s.netHooks = len(e.net.resolveHooks)
		s.sockets = make(map[Handle]sockPrior)
		s.netEntries = make(map[netEntryKey]netEntryPrior)
		if r := e.net.responder; r != nil {
			s.hadResponder = true
			s.respMark = r.Mark()
		}
	}
	e.snaps = append(e.snaps, s)
	return s
}

// Reset rewinds the environment to the snapshot, which must be the
// innermost open one. The snapshot stays open: the next run's touches
// journal afresh.
func (e *Env) Reset(s *Snapshot) {
	if s == nil || s.env != e || len(e.snaps) == 0 || e.snaps[len(e.snaps)-1] != s {
		panic("winenv: Reset of a snapshot that is not the environment's innermost")
	}
	for k, prior := range s.resources {
		if prior == nil {
			delete(e.resources[k.kind], k.key)
		} else {
			// Reinstall a copy so the journal entry stays pristine even
			// if the restored resource is later mutated in place.
			e.resources[k.kind][k.key] = prior.clone()
		}
	}
	clear(s.resources)
	for h, prior := range s.handles {
		if prior.kind == KindInvalid {
			delete(e.handles, h)
		} else {
			e.handles[h] = prior
		}
	}
	clear(s.handles)
	e.identity = s.identity
	e.next = s.next
	e.lastErr = s.lastErr
	if len(e.hooks) > s.hooks {
		e.hooks = e.hooks[:s.hooks]
	}
	if !s.hadNet {
		// The network sprang into existence during the run; forget it.
		e.net = nil
		return
	}
	if n := e.net; n != nil {
		for h, prior := range s.sockets {
			if prior.present {
				n.sockets[h] = prior.target
			} else {
				delete(n.sockets, h)
			}
		}
		clear(s.sockets)
		for k, prior := range s.netEntries {
			switch k.table {
			case netDNS:
				if prior.present {
					n.dns[k.key] = prior.value
				} else {
					delete(n.dns, k.key)
				}
			case netBlackhole:
				if prior.present {
					n.blackholed[k.key] = true
				} else {
					delete(n.blackholed, k.key)
				}
			case netRegistered:
				if prior.present {
					n.registered[k.key] = true
				} else {
					delete(n.registered, k.key)
				}
			}
		}
		clear(s.netEntries)
		n.nextSocket = s.netNextSocket
		if len(n.resolveHooks) > s.netHooks {
			n.resolveHooks = n.resolveHooks[:s.netHooks]
		}
		if s.hadResponder && n.responder != nil {
			n.responder.Rewind(s.respMark)
		}
	}
}

// Affects reports whether a run that reads rs could observe a
// difference between the environment's current state and the open
// snapshot s. It does when any of these differs from the snapshot: the
// identity, last-error or next-handle register, a journaled
// handle entry, or the hook count; the network, for a run that used it;
// or a journaled resource that rs read, compared by value, so keys
// touched and then rewound since the snapshot (a nested slice replay
// rewinds its own) do not count. The environment is deterministic:
// a run whose every read returns what it returned when rs was recorded
// against the snapshot's state repeats that run exactly, so false means
// the run need not be made again.
func (s *Snapshot) Affects(rs *ReadSet) bool {
	e := s.env
	if e.identity != s.identity || e.lastErr != s.lastErr ||
		e.next != s.next || len(e.hooks) != s.hooks {
		return true
	}
	for h, prior := range s.handles {
		if e.handles[h] != prior {
			return true
		}
	}
	if rs.net && s.netChanged() {
		return true
	}
	for k, prior := range s.resources {
		if _, read := rs.keys[k]; (read || rs.all) && !sameResource(e.resources[k.kind][k.key], prior) {
			return true
		}
	}
	return false
}

// netChanged reports whether the network differs from the snapshot:
// created or dropped since, a journaled socket or table entry changed,
// or the socket counter or resolve hooks grown. A scripted
// responder's dialogue state is opaque, so a network with one always
// counts as changed.
func (s *Snapshot) netChanged() bool {
	n := s.env.net
	if !s.hadNet || n == nil {
		return s.hadNet != (n != nil)
	}
	if n.responder != nil || n.nextSocket != s.netNextSocket ||
		len(n.resolveHooks) != s.netHooks {
		return true
	}
	for h, prior := range s.sockets {
		if target, ok := n.sockets[h]; (sockPrior{target, ok}) != prior {
			return true
		}
	}
	for k, prior := range s.netEntries {
		if n.entry(k.table, k.key) != prior {
			return true
		}
	}
	return false
}

// sameResource reports whether two namespace entries (nil = absent)
// hold the same value.
func sameResource(a, b *Resource) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind == b.Kind && a.Name == b.Name && a.Owner == b.Owner &&
		bytes.Equal(a.Data, b.Data) &&
		a.ACL.OwnerOnly == b.ACL.OwnerOnly && slices.Equal(a.ACL.Deny, b.ACL.Deny)
}

// Close releases the snapshot without rewinding: the environment keeps
// its current state. Closing out of order (not innermost-first) panics;
// closing twice is a no-op.
func (s *Snapshot) Close() {
	e := s.env
	if e == nil {
		return
	}
	s.env = nil
	if len(e.snaps) == 0 || e.snaps[len(e.snaps)-1] != s {
		for _, open := range e.snaps {
			if open == s {
				panic("winenv: Snapshot.Close out of order (inner snapshots still open)")
			}
		}
		return // already closed
	}
	e.snaps = e.snaps[:len(e.snaps)-1]
}

// noteResource journals a resource's prior value into every open
// snapshot that has not seen this key yet. Called before any mutation
// of e.resources[kind][key]. If the innermost snapshot holds a note for
// the key, every outer one does too (notes are added outside-in), so
// the walk stops at the first hit.
func (e *Env) noteResource(kind ResourceKind, key string) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		k := resKey{kind, key}
		if _, seen := s.resources[k]; seen {
			break
		}
		var prior *Resource
		if r := e.resources[kind][key]; r != nil {
			prior = r.clone()
		}
		s.resources[k] = prior
	}
}

// noteHandle journals a handle's prior entry; same discipline as
// noteResource.
func (e *Env) noteHandle(h Handle) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		if _, seen := s.handles[h]; seen {
			break
		}
		s.handles[h] = e.handles[h]
	}
}

// noteSocket journals a socket's prior binding; snapshots taken before
// the network existed skip it (Reset discards the whole network then).
func (e *Env) noteSocket(h Handle) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		if !s.hadNet {
			continue
		}
		if _, seen := s.sockets[h]; seen {
			break
		}
		target, present := e.net.sockets[h]
		s.sockets[h] = sockPrior{target: target, present: present}
	}
}

// noteNetEntry journals a DNS/blackhole/registration entry's prior
// state before mutation; same discipline as noteSocket.
func (e *Env) noteNetEntry(table netTable, key string) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		if !s.hadNet {
			continue
		}
		k := netEntryKey{table, key}
		if _, seen := s.netEntries[k]; seen {
			break
		}
		s.netEntries[k] = e.net.entry(table, key)
	}
}

// entry returns the current state of one network table entry.
func (n *Network) entry(table netTable, key string) netEntryPrior {
	var cur netEntryPrior
	switch table {
	case netDNS:
		cur.value, cur.present = n.dns[key]
	case netBlackhole:
		cur.present = n.blackholed[key]
	case netRegistered:
		cur.present = n.registered[key]
	}
	return cur
}
