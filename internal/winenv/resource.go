// Package winenv implements an in-memory, Windows-like system resource
// environment: named resources (files, registry keys, mutexes, processes,
// services, GUI windows, libraries), a handle table, Win32-style error
// codes, a simple ACL model, and interception hooks.
//
// winenv is the substrate that replaces a real Windows installation in this
// reproduction of AUTOVAC (ICDCS 2013). Malware and benign programs observe
// the system exclusively through resource operations, so an emulated
// resource namespace exposes the same observable surface the paper's
// dynamic analysis instruments: operation results, handles, and
// GetLastError values.
package winenv

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// ResourceKind identifies the namespace a resource lives in. The first
// seven kinds mirror the resource types evaluated in the paper (§VI-B):
// file, registry, mutex, process, service, window, and library. The
// eighth, domain, extends the model to network identifiers (C2 hosts,
// DGA names, killswitch domains) resolved through the Network
// simulation rather than the local resource namespaces.
type ResourceKind int

// Resource kinds, in the order the paper's Figure 3 reports them.
const (
	// KindInvalid is the zero value; it is never a valid resource kind.
	KindInvalid ResourceKind = iota
	// KindFile is a file-system path (also used for kernel driver .sys files
	// and named pipes, which share the file namespace in this model).
	KindFile
	// KindRegistry is a registry key or value path.
	KindRegistry
	// KindMutex is a named mutual-exclusion object.
	KindMutex
	// KindProcess is a running process, identified by image name.
	KindProcess
	// KindService is an entry in the service control manager database.
	KindService
	// KindWindow is a top-level GUI window, identified by class/title.
	KindWindow
	// KindLibrary is a loadable module (DLL).
	KindLibrary
	// KindDomain is a network identifier: a DNS hostname, host:port
	// target, or URL. Domain "resources" live in the Network
	// simulation's DNS world (registered names, sinkholes), not in the
	// in-memory namespaces; deploy translates domain vaccines into
	// sinkhole registrations and blackholes.
	KindDomain
)

// Kinds lists every valid resource kind in display order.
func Kinds() []ResourceKind {
	return []ResourceKind{
		KindFile, KindRegistry, KindMutex, KindProcess,
		KindService, KindWindow, KindLibrary, KindDomain,
	}
}

// String returns the lower-case name of the kind.
func (k ResourceKind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindRegistry:
		return "registry"
	case KindMutex:
		return "mutex"
	case KindProcess:
		return "process"
	case KindService:
		return "service"
	case KindWindow:
		return "window"
	case KindLibrary:
		return "library"
	case KindDomain:
		return "domain"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind converts a kind name produced by String back to a ResourceKind.
func ParseKind(s string) (ResourceKind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return KindInvalid, fmt.Errorf("winenv: unknown resource kind %q", s)
}

// Valid reports whether k names one of the eight resource kinds.
func (k ResourceKind) Valid() bool {
	return k >= KindFile && k <= KindDomain
}

// Op is a basic operation on a resource. The paper measures create,
// read/open, write, and delete per resource kind (Figure 3); Query is the
// existence check that many infection markers rely on.
type Op int

// Operations on resources.
const (
	// OpInvalid is the zero value; it is never a valid operation.
	OpInvalid Op = iota
	// OpCreate creates a resource (CreateFile with CREATE_NEW, CreateMutex,
	// RegCreateKey, CreateService, CreateWindow, CreateProcess, ...).
	OpCreate
	// OpOpen opens an existing resource (OpenMutex, RegOpenKey, LoadLibrary,
	// FindWindow, OpenProcess, OpenService, CreateFile with OPEN_EXISTING).
	OpOpen
	// OpRead reads resource data (ReadFile, RegQueryValueEx).
	OpRead
	// OpWrite writes resource data (WriteFile, RegSetValueEx).
	OpWrite
	// OpDelete removes a resource (DeleteFile, RegDeleteKey, DeleteService).
	OpDelete
	// OpQuery tests for existence without opening (GetFileAttributes).
	OpQuery
)

// Ops lists every valid operation in display order.
func Ops() []Op {
	return []Op{OpCreate, OpOpen, OpRead, OpWrite, OpDelete, OpQuery}
}

// String returns the lower-case name of the operation.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	case OpQuery:
		return "query"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Valid reports whether o names one of the six operations.
func (o Op) Valid() bool { return o >= OpCreate && o <= OpQuery }

// ErrorCode is a Win32-style error code as returned by GetLastError.
type ErrorCode uint32

// Win32 error codes used by the environment. Values match the real
// Windows constants so that traces read naturally.
const (
	ErrSuccess          ErrorCode = 0
	ErrFileNotFound     ErrorCode = 2   // ERROR_FILE_NOT_FOUND
	ErrAccessDenied     ErrorCode = 5   // ERROR_ACCESS_DENIED
	ErrInvalidHandle    ErrorCode = 6   // ERROR_INVALID_HANDLE
	ErrWriteFault       ErrorCode = 29  // ERROR_WRITE_FAULT
	ErrReadFault        ErrorCode = 30  // ERROR_READ_FAULT
	ErrNotSupported     ErrorCode = 50  // ERROR_NOT_SUPPORTED
	ErrInvalidParameter ErrorCode = 87  // ERROR_INVALID_PARAMETER
	ErrAlreadyExists    ErrorCode = 183 // ERROR_ALREADY_EXISTS
	ErrModuleNotFound   ErrorCode = 126 // ERROR_MOD_NOT_FOUND
	ErrProcNotFound     ErrorCode = 127 // ERROR_PROC_NOT_FOUND
	ErrServiceExists    ErrorCode = 1073
	ErrServiceNotFound  ErrorCode = 1060
	ErrWindowNotFound   ErrorCode = 1400  // ERROR_INVALID_WINDOW_HANDLE
	ErrHostNotFound     ErrorCode = 11001 // WSAHOST_NOT_FOUND
	ErrConnRefused      ErrorCode = 10061 // WSAECONNREFUSED
)

// String renders the code with its symbolic name where known.
func (e ErrorCode) String() string {
	names := map[ErrorCode]string{
		ErrSuccess:          "SUCCESS",
		ErrFileNotFound:     "FILE_NOT_FOUND",
		ErrAccessDenied:     "ACCESS_DENIED",
		ErrInvalidHandle:    "INVALID_HANDLE",
		ErrWriteFault:       "WRITE_FAULT",
		ErrReadFault:        "READ_FAULT",
		ErrNotSupported:     "NOT_SUPPORTED",
		ErrInvalidParameter: "INVALID_PARAMETER",
		ErrAlreadyExists:    "ALREADY_EXISTS",
		ErrModuleNotFound:   "MOD_NOT_FOUND",
		ErrProcNotFound:     "PROC_NOT_FOUND",
		ErrServiceExists:    "SERVICE_EXISTS",
		ErrServiceNotFound:  "SERVICE_DOES_NOT_EXIST",
		ErrWindowNotFound:   "INVALID_WINDOW_HANDLE",
		ErrHostNotFound:     "WSAHOST_NOT_FOUND",
		ErrConnRefused:      "WSAECONNREFUSED",
	}
	if n, ok := names[e]; ok {
		return fmt.Sprintf("%d (%s)", uint32(e), n)
	}
	return fmt.Sprintf("%d", uint32(e))
}

// Handle is an opaque reference to an open resource, as returned by
// open/create operations. Handle 0 is the invalid handle (NULL).
type Handle uint32

// InvalidHandle is the NULL handle returned by failed open operations.
const InvalidHandle Handle = 0

// Resource is a named object in one of the environment's namespaces.
type Resource struct {
	Kind ResourceKind
	// Name is the identifier in its original spelling. Lookups are
	// case-insensitive, matching Windows namespace semantics.
	Name string
	// Data holds file contents or a registry value. Registry sub-values
	// are modelled as their own resources named "<key>\<value>", so
	// keys carry no value map.
	Data []byte
	// Owner records who created the resource: a program name, "system"
	// for pre-existing resources, or "vaccine" for injected vaccines.
	Owner string
	// ACL restricts operations on the resource.
	ACL ACL
}

// clone returns a deep copy of the resource.
func (r *Resource) clone() *Resource {
	c := *r
	c.Data = append([]byte(nil), r.Data...)
	return &c
}

// canonicalName normalizes a resource identifier for namespace lookup.
// Windows object names are case-insensitive; path separators are unified.
// A name that is already canonical — ASCII, lower case, no '/' — is
// returned as it is.
func canonicalName(name string) string {
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '/' || 'A' <= c && c <= 'Z' || c >= utf8.RuneSelf {
			return strings.ToLower(strings.ReplaceAll(name, "/", `\`))
		}
	}
	return name
}
