package winapi

import "sync"

// The standard sets are built once and shared by every caller.
var (
	standardSet   = sync.OnceValue(func() *Registry { return standard(false) })
	standardC2Set = sync.OnceValue(func() *Registry { return standard(true) })
)

// Standard returns the full labelled API set: every file, registry,
// mutex, process, service, window, library, network, host-information,
// and string API this reproduction's programs call. It is the analogue
// of the paper's examined-and-labelled Windows API table (§III-A).
// Network APIs carry no resource label here, keeping legacy corpus
// traces byte-identical.
//
// The registry is built on first use and shared process-wide, so
// every call returns the same value. It is read-only: callers must not
// Register on it or mutate the specs Lookup returns (build a private
// set with NewRegistry instead). Concurrent reads are safe.
func Standard() *Registry {
	return standardSet()
}

// StandardC2 is Standard with the name-taking network APIs additionally
// labelled as winenv.KindDomain resources (see registerNet). The
// pipeline selects it when a c2 scenario is attached, promoting C2
// hostnames, host:port targets, and URLs to candidate vaccine material.
// Like Standard, it returns one shared, read-only registry.
func StandardC2() *Registry {
	return standardC2Set()
}

func standard(domainLabels bool) *Registry {
	r := NewRegistry()
	registerFile(r)
	registerRegistry(r)
	registerMutex(r)
	registerProcess(r)
	registerService(r)
	registerWindow(r)
	registerLibrary(r)
	registerNet(r, domainLabels)
	registerInfo(r)
	registerStrings(r)
	return r
}

// TerminationAPIs lists the self-termination APIs whose appearance in
// the mutated trace's difference set marks full immunization (§IV-B).
func TerminationAPIs() []string {
	return []string{"ExitProcess", "ExitThread", "TerminateProcess"}
}

// KernelInjectionAPIs lists the APIs whose loss marks Type-I partial
// immunization (disable kernel injection).
func KernelInjectionAPIs() []string {
	return []string{"OpenSCManagerA", "CreateServiceA", "StartServiceA"}
}

// ProcessInjectionAPIs lists the APIs whose loss marks Type-IV partial
// immunization (disable benign process injection).
func ProcessInjectionAPIs() []string {
	return []string{"OpenProcessByNameA", "WriteProcessMemory", "CreateRemoteThread"}
}
