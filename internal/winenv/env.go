package winenv

import (
	"fmt"
	"sort"
)

// HostIdentity carries the per-machine invariants that
// algorithm-deterministic resource identifiers are derived from (§IV-C):
// computer name, user name, volume serial number, and IP address. The
// paper's Conficker case study generates a per-host mutex name from such
// seeds.
type HostIdentity struct {
	ComputerName string
	UserName     string
	VolumeSerial uint32
	IPAddress    string
}

// DefaultIdentity returns a plausible workstation identity.
func DefaultIdentity() HostIdentity {
	return HostIdentity{
		ComputerName: "WIN-AUTOVAC01",
		UserName:     "alice",
		VolumeSerial: 0x5A17C0DE,
		IPAddress:    "192.168.1.17",
	}
}

// Request describes one attempted resource operation, as seen by
// interception hooks.
type Request struct {
	Kind ResourceKind
	Op   Op
	// Name is the resource identifier in its original spelling.
	Name string
	// Principal is the program performing the operation.
	Principal string
	// Data carries the payload for write/create operations (may be nil).
	Data []byte
}

// Result is the outcome of a resource operation.
type Result struct {
	// OK reports whether the operation succeeded.
	OK bool
	// Err is the GetLastError value when OK is false (and
	// ErrAlreadyExists on a successful create of an existing mutex,
	// matching CreateMutex semantics).
	Err ErrorCode
	// Handle is the opened handle for create/open operations.
	Handle Handle
	// Data is the payload for read operations.
	Data []byte
	// Intercepted reports that a hook (vaccine daemon) forced this result.
	Intercepted bool
}

// Hook intercepts resource operations before they reach the namespace.
// Returning a non-nil Result short-circuits the operation; returning nil
// lets it proceed. The vaccine daemon (§V) is implemented as a Hook.
type Hook func(Request) *Result

// openHandle tracks one open handle in the handle table, which holds
// it by value; its zero value (KindInvalid) marks an absent handle in
// snapshot journals.
type openHandle struct {
	kind      ResourceKind
	name      string
	principal string
}

// Env is a simulated Windows-like environment: eight resource namespaces,
// a handle table, a last-error register, and interception hooks. The
// zero value is not usable; construct with New.
//
// Env is not safe for concurrent use; each emulated execution owns its
// Env.
type Env struct {
	identity  HostIdentity
	resources map[ResourceKind]map[string]*Resource
	handles   map[Handle]openHandle
	next      Handle
	lastErr   ErrorCode
	hooks     []Hook
	net       *Network
	// snaps is the stack of open snapshots; mutation points journal
	// prior values into it (see snapshot.go). Empty in the common case.
	snaps []*Snapshot
	// reads collects what the running program observes while a
	// RecordReads is in progress; nil otherwise.
	reads *ReadSet
}

// New creates an environment with the given host identity and a small
// population of system resources (system DLLs, core processes, registry
// skeleton) that benign and malicious programs expect to find.
func New(id HostIdentity) *Env {
	e := &Env{
		identity:  id,
		resources: make(map[ResourceKind]map[string]*Resource),
		handles:   make(map[Handle]openHandle),
		next:      4, // handles are multiples of 4, like Windows
	}
	for _, k := range Kinds() {
		e.resources[k] = make(map[string]*Resource)
	}
	e.populateSystem()
	return e
}

// populateSystem seeds the namespaces with baseline system resources.
func (e *Env) populateSystem() {
	sys := func(kind ResourceKind, names ...string) {
		for _, n := range names {
			e.resources[kind][canonicalName(n)] = &Resource{
				Kind: kind, Name: n, Owner: "system",
			}
		}
	}
	sys(KindProcess, "explorer.exe", "svchost.exe", "winlogon.exe",
		"services.exe", "lsass.exe", "csrss.exe")
	sys(KindLibrary, "kernel32.dll", "ntdll.dll", "user32.dll",
		"advapi32.dll", "ws2_32.dll", "wininet.dll", "uxtheme.dll",
		"msvcrt.dll", "shell32.dll", "ole32.dll")
	sys(KindFile, `C:\Windows\system32\kernel32.dll`,
		`C:\Windows\system32\ntdll.dll`,
		`C:\Windows\system.ini`,
		`C:\Windows\win.ini`)
	sys(KindRegistry,
		`HKLM\Software\Microsoft\Windows\CurrentVersion\Run`,
		`HKLM\Software\Microsoft\Windows\CurrentVersion\RunOnce`,
		`HKCU\Software\Microsoft\Windows\CurrentVersion\Run`,
		`HKLM\System\CurrentControlSet\Services`,
		`HKLM\Software\Microsoft\Windows NT\CurrentVersion\Winlogon`)
	sys(KindService, "EventLog", "Dhcp", "Dnscache", "LanmanServer")
}

// Identity returns the host identity.
func (e *Env) Identity() HostIdentity { return e.identity }

// SetIdentity replaces the host identity (used when modelling a different
// end host or a changed computer name that forces vaccine regeneration).
func (e *Env) SetIdentity(id HostIdentity) { e.identity = id }

// LastError returns the current GetLastError value.
func (e *Env) LastError() ErrorCode { return e.lastErr }

// SetLastError sets the GetLastError value.
func (e *Env) SetLastError(c ErrorCode) { e.lastErr = c }

// AddHook registers an interception hook. Hooks run in registration order;
// the first hook returning a non-nil Result decides the operation.
func (e *Env) AddHook(h Hook) { e.hooks = append(e.hooks, h) }

// ClearHooks removes all interception hooks.
func (e *Env) ClearHooks() { e.hooks = nil }

// HookCount returns the number of registered hooks.
func (e *Env) HookCount() int { return len(e.hooks) }

// Do performs a resource operation: it consults hooks, applies namespace
// semantics, and updates GetLastError.
func (e *Env) Do(req Request) Result {
	res := e.dispatch(req)
	// Failures always set last-error. A success with a non-success code
	// also sets it (CreateMutex on an existing object succeeds but reports
	// ERROR_ALREADY_EXISTS); a plain success leaves last-error untouched.
	if !res.OK || res.Err != ErrSuccess {
		e.lastErr = res.Err
	}
	return res
}

// dispatch applies hooks then namespace semantics.
func (e *Env) dispatch(req Request) Result {
	for _, h := range e.hooks {
		if r := h(req); r != nil {
			r.Intercepted = true
			return *r
		}
	}
	if !req.Kind.Valid() || !req.Op.Valid() {
		return Result{Err: ErrInvalidParameter}
	}
	ns := e.resources[req.Kind]
	key := canonicalName(req.Name)
	if e.reads != nil {
		e.reads.keys[resKey{req.Kind, key}] = struct{}{}
	}
	existing := ns[key]

	if existing != nil && existing.ACL.denies(req.Op, req.Principal, existing.Owner) {
		return Result{Err: ErrAccessDenied}
	}

	switch req.Op {
	case OpCreate:
		if existing != nil {
			switch req.Kind {
			case KindMutex:
				// CreateMutex opens the existing object and reports
				// ERROR_ALREADY_EXISTS while still succeeding.
				return Result{OK: true, Err: ErrAlreadyExists, Handle: e.open(req)}
			case KindService:
				return Result{Err: ErrServiceExists}
			default:
				return Result{Err: ErrAlreadyExists}
			}
		}
		if len(e.snaps) > 0 {
			e.noteResource(req.Kind, key)
		}
		ns[key] = &Resource{
			Kind:  req.Kind,
			Name:  req.Name,
			Data:  append([]byte(nil), req.Data...),
			Owner: req.Principal,
		}
		return Result{OK: true, Handle: e.open(req)}

	case OpOpen:
		if existing == nil {
			return Result{Err: notFoundError(req.Kind)}
		}
		return Result{OK: true, Handle: e.open(req)}

	case OpQuery:
		if existing == nil {
			return Result{Err: notFoundError(req.Kind)}
		}
		return Result{OK: true}

	case OpRead:
		if existing == nil {
			return Result{Err: notFoundError(req.Kind)}
		}
		return Result{OK: true, Data: append([]byte(nil), existing.Data...)}

	case OpWrite:
		if existing == nil {
			return Result{Err: notFoundError(req.Kind)}
		}
		if len(e.snaps) > 0 {
			e.noteResource(req.Kind, key)
		}
		existing.Data = append(existing.Data[:0], req.Data...)
		return Result{OK: true}

	case OpDelete:
		if existing == nil {
			return Result{Err: notFoundError(req.Kind)}
		}
		if len(e.snaps) > 0 {
			e.noteResource(req.Kind, key)
		}
		delete(ns, key)
		return Result{OK: true}
	}
	return Result{Err: ErrInvalidParameter}
}

// open allocates a handle for a successful create/open.
func (e *Env) open(req Request) Handle {
	h := e.next
	e.next += 4
	if len(e.snaps) > 0 {
		e.noteHandle(h)
	}
	e.handles[h] = openHandle{
		kind:      req.Kind,
		name:      req.Name,
		principal: req.Principal,
	}
	return h
}

// notFoundError maps a resource kind to its idiomatic not-found code.
func notFoundError(k ResourceKind) ErrorCode {
	switch k {
	case KindLibrary:
		return ErrModuleNotFound
	case KindService:
		return ErrServiceNotFound
	case KindWindow:
		return ErrWindowNotFound
	default:
		return ErrFileNotFound
	}
}

// CloseHandle releases a handle. It returns false (and sets
// ERROR_INVALID_HANDLE) if the handle is not open.
func (e *Env) CloseHandle(h Handle) bool {
	if _, ok := e.handles[h]; !ok {
		e.lastErr = ErrInvalidHandle
		return false
	}
	if len(e.snaps) > 0 {
		e.noteHandle(h)
	}
	delete(e.handles, h)
	return true
}

// HandleName resolves an open handle to its resource kind and name.
func (e *Env) HandleName(h Handle) (ResourceKind, string, bool) {
	oh, ok := e.handles[h]
	if !ok {
		return KindInvalid, "", false
	}
	return oh.kind, oh.name, true
}

// OpenHandleCount returns the number of live handles.
func (e *Env) OpenHandleCount() int { return len(e.handles) }

// Lookup returns the resource with the given kind and name, or nil.
func (e *Env) Lookup(kind ResourceKind, name string) *Resource {
	key := canonicalName(name)
	if e.reads != nil {
		e.reads.keys[resKey{kind, key}] = struct{}{}
	}
	return e.resources[kind][key]
}

// Exists reports whether a resource is present.
func (e *Env) Exists(kind ResourceKind, name string) bool {
	return e.Lookup(kind, name) != nil
}

// Inject places a resource directly into the environment, bypassing
// hooks. It is the primitive behind vaccine direct injection.
// Any existing resource with the same name is replaced.
func (e *Env) Inject(r Resource) {
	if r.Owner == "" {
		r.Owner = "vaccine"
	}
	key := canonicalName(r.Name)
	if len(e.snaps) > 0 {
		e.noteResource(r.Kind, key)
	}
	e.resources[r.Kind][key] = r.clone()
}

// Remove deletes a resource directly, bypassing hooks. It reports
// whether the resource existed.
func (e *Env) Remove(kind ResourceKind, name string) bool {
	key := canonicalName(name)
	if _, ok := e.resources[kind][key]; !ok {
		return false
	}
	if len(e.snaps) > 0 {
		e.noteResource(kind, key)
	}
	delete(e.resources[kind], key)
	return true
}

// List returns the names of all resources of a kind owned by the given
// owner ("" matches every owner), sorted for determinism.
func (e *Env) List(kind ResourceKind, owner string) []string {
	if e.reads != nil {
		e.reads.all = true
	}
	var names []string
	for _, r := range e.resources[kind] {
		if owner == "" || r.Owner == owner {
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)
	return names
}

// ResourceCount returns the total number of resources of a kind.
func (e *Env) ResourceCount(kind ResourceKind) int {
	if e.reads != nil {
		e.reads.all = true
	}
	return len(e.resources[kind])
}

// ReadSet is what one run observed of an environment: every namespace
// key it looked up through Do, Lookup or Exists, hit or miss, and
// whether it used the network. A run that enumerated a namespace (List,
// ResourceCount) observed every key. (*Snapshot).Affects decides from a
// ReadSet whether a change since a snapshot is visible to the run.
type ReadSet struct {
	keys map[resKey]struct{}
	net  bool
	all  bool
}

// RecordReads starts collecting a ReadSet of everything the
// environment is asked until StopReads. It replaces any set still
// being recorded.
func (e *Env) RecordReads() *ReadSet {
	e.reads = &ReadSet{keys: make(map[resKey]struct{})}
	return e.reads
}

// StopReads ends the recording RecordReads started.
func (e *Env) StopReads() { e.reads = nil }

// String summarizes the environment population.
func (e *Env) String() string {
	total := 0
	for _, ns := range e.resources {
		total += len(ns)
	}
	return fmt.Sprintf("winenv(%s: %d resources, %d handles)",
		e.identity.ComputerName, total, len(e.handles))
}
