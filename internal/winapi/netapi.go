package winapi

import (
	"autovac/internal/taint"
	"autovac/internal/winenv"
)

// socketError is the winsock SOCKET_ERROR return (-1).
const socketError uint32 = 0xFFFFFFFF

// maxSendCapture caps how many request bytes a scripted responder sees.
const maxSendCapture = 256

// registerNet adds the winsock/WinINet subset.
//
// With domainLabels false (the Standard registry), network APIs carry no
// resource label — a C&C address is not a local system resource — but
// their presence in the normal trace and absence in the mutated trace is
// exactly what the Type-II "Disable Massive Network Behavior" classifier
// looks for. This keeps the legacy corpus byte-identical.
//
// With domainLabels true (the StandardC2 registry, selected when a c2
// scenario is attached), the name-taking APIs are labelled with
// winenv.KindDomain so network identifiers become candidate vaccine
// material: gethostbyname's hostname, connect's host:port target, and
// InternetOpenUrlA's URL are resource identifiers with winsock
// success/failure conventions.
//
// Independent of labelling, the byte-level payload paths (send/recv/
// InternetReadFile) consult the scripted responder only when one is
// attached; unscripted runs keep the legacy synthetic payloads,
// including the deterministic PRNG byte stream.
func registerNet(r *Registry, domainLabels bool) {
	hostLabel := Label{IdentifierArg: -1, StrArgs: []int{0}, StaticArgs: []int{0}}
	if domainLabels {
		hostLabel = Label{
			Resource: winenv.KindDomain, Op: winenv.OpOpen,
			IdentifierArg: 0, Taint: TaintReturn,
			StrArgs: []int{0}, StaticArgs: []int{0},
			SuccessRet: 0x30000010, FailureRet: 0,
			FailureErr: winenv.ErrHostNotFound,
		}
	}
	r.Register(Spec{
		Name: "gethostbyname", NArgs: 1,
		Label: hostLabel,
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			host, _, err := m.ReadCString(args[0].Value)
			if err != nil {
				return Outcome{}, err
			}
			if _, ok := m.Env().Net().Resolve(host); !ok {
				if domainLabels {
					m.Env().SetLastError(winenv.ErrHostNotFound)
				}
				return Outcome{Ret: 0}, nil
			}
			return Outcome{Ret: 0x30000000 | (hash32(host) & 0x0FFFFFF0), Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "socket", NArgs: 0,
		Label: Label{IdentifierArg: -1},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			// Socket allocation always succeeds; the connect decides.
			return Outcome{Ret: 0x7000 + m.Rand()%0x100*4, Success: true}, nil
		},
	})

	connectLabel := Label{IdentifierArg: -1, StrArgs: []int{1}, StaticArgs: []int{1}}
	if domainLabels {
		connectLabel = Label{
			Resource: winenv.KindDomain, Op: winenv.OpOpen,
			IdentifierArg: 1, Taint: TaintReturn,
			StrArgs: []int{1}, StaticArgs: []int{1},
			SuccessRet: 0, FailureRet: socketError,
			FailureErr: winenv.ErrConnRefused,
		}
	}
	r.Register(Spec{
		Name: "connect", NArgs: 2,
		Label: connectLabel,
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			target, _, err := m.ReadCString(args[1].Value)
			if err != nil {
				return Outcome{}, err
			}
			if !m.Env().Net().BindConnect(winenv.Handle(args[0].Value), target) {
				if domainLabels {
					m.Env().SetLastError(winenv.ErrConnRefused)
				}
				return Outcome{Ret: socketError}, nil
			}
			return Outcome{Ret: 0, Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "send", NArgs: 3,
		Label: Label{IdentifierArg: -1},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			n := args[2].Value
			net := m.Env().Net()
			if net.HasResponder() {
				// Scripted dialogue: expose the actual request bytes so
				// beacon protocols can match on them.
				cap := n
				if cap > maxSendCapture {
					cap = maxSendCapture
				}
				data, _, err := m.ReadBytes(args[1].Value, cap)
				if err != nil {
					return Outcome{}, err
				}
				if !net.SendPayload(winenv.Handle(args[0].Value), data) {
					return Outcome{Ret: socketError}, nil
				}
			}
			return Outcome{Ret: n, Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "recv", NArgs: 3,
		Label: Label{IdentifierArg: -1},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			n := args[2].Value
			if n > 64 {
				n = 64
			}
			net := m.Env().Net()
			if net.HasResponder() {
				// Scripted dialogue: the responder decides the reply. The
				// return value is the byte count (0 = the C2 hung up),
				// which is what beacon-gated samples branch on.
				data, ok, handled := net.RecvPayload(winenv.Handle(args[0].Value), int(n))
				if handled {
					if !ok {
						return Outcome{Ret: socketError}, nil
					}
					if len(data) > 0 {
						if err := m.WriteBytes(args[1].Value, data, src); err != nil {
							return Outcome{}, err
						}
					}
					return Outcome{Ret: uint32(len(data)), Success: len(data) > 0}, nil
				}
			}
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(m.Rand())
			}
			if n > 0 {
				if err := m.WriteBytes(args[1].Value, payload, src); err != nil {
					return Outcome{}, err
				}
			}
			return Outcome{Ret: n, Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "closesocket", NArgs: 1,
		Label: Label{IdentifierArg: -1},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			m.Env().Net().CloseSocket(winenv.Handle(args[0].Value))
			return Outcome{Ret: 0, Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "InternetOpenA", NArgs: 1,
		Label: Label{IdentifierArg: -1, StrArgs: []int{0}},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			return Outcome{Ret: 0x1E7, Success: true}, nil
		},
	})

	urlLabel := Label{IdentifierArg: -1, StrArgs: []int{1}, StaticArgs: []int{1}}
	if domainLabels {
		urlLabel = Label{
			Resource: winenv.KindDomain, Op: winenv.OpOpen,
			IdentifierArg: 1, Taint: TaintReturn,
			StrArgs: []int{1}, StaticArgs: []int{1},
			SuccessRet: 0x1EB, FailureRet: 0,
			FailureErr: winenv.ErrHostNotFound,
		}
	}
	r.Register(Spec{
		Name: "InternetOpenUrlA", NArgs: 2,
		Label: urlLabel,
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			url, _, err := m.ReadCString(args[1].Value)
			if err != nil {
				return Outcome{}, err
			}
			h, ok := m.Env().Net().HTTPGet(url)
			if !ok {
				if domainLabels {
					m.Env().SetLastError(winenv.ErrHostNotFound)
				}
				return Outcome{Ret: 0}, nil
			}
			return Outcome{Ret: uint32(h), Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "InternetReadFile", NArgs: 3,
		Label: Label{IdentifierArg: -1},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			n := args[2].Value
			if n > 64 {
				n = 64
			}
			net := m.Env().Net()
			if net.HasResponder() {
				// Scripted staged fetch: return the byte count so droppers
				// observe a locked/exhausted stage as a zero-length read.
				data, ok, handled := net.RecvPayload(winenv.Handle(args[0].Value), int(n))
				if handled {
					if !ok {
						return Outcome{Ret: 0}, nil
					}
					if len(data) > 0 {
						if err := m.WriteBytes(args[1].Value, data, src); err != nil {
							return Outcome{}, err
						}
					}
					return Outcome{Ret: uint32(len(data)), Success: len(data) > 0}, nil
				}
			}
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(m.Rand())
			}
			if n > 0 {
				if err := m.WriteBytes(args[1].Value, payload, src); err != nil {
					return Outcome{}, err
				}
			}
			return Outcome{Ret: 1, Success: true}, nil
		},
	})

	r.Register(Spec{
		Name: "InternetCloseHandle", NArgs: 1,
		Label: Label{IdentifierArg: -1},
		Impl: func(m Machine, args []Arg, src taint.Set) (Outcome, error) {
			return Outcome{Ret: 1, Success: true}, nil
		},
	})
}

// NetworkAPIs lists the API names the Type-II classifier treats as
// network behaviour.
func NetworkAPIs() []string {
	return []string{
		"gethostbyname", "socket", "connect", "send", "recv",
		"InternetOpenA", "InternetOpenUrlA", "InternetReadFile",
	}
}
