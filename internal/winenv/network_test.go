package winenv

import (
	"bytes"
	"testing"
)

func TestResolveDefaultAndDNS(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	ip, ok := n.Resolve("cc.example.com")
	if !ok || ip == "" {
		t.Fatalf("unknown host should resolve synthetically, got %q ok=%v", ip, ok)
	}
	ip2, _ := n.Resolve("cc.example.com")
	if ip2 != ip {
		t.Fatalf("synthetic address not stable: %q vs %q", ip, ip2)
	}
	n.AddDNS("update.example.com", "93.184.216.34")
	if ip, ok := n.Resolve("update.example.com"); !ok || ip != "93.184.216.34" {
		t.Fatalf("configured DNS ignored: %q ok=%v", ip, ok)
	}
}

func TestBlackholeFailsResolveAndConnect(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	n.Blackhole("evil.example.com")
	n.Blackhole("10.0.0.1:445")
	if _, ok := n.Resolve("evil.example.com"); ok {
		t.Fatal("blackholed host resolved")
	}
	if !n.Blackholed("evil.example.com") {
		t.Fatal("Blackholed() false for blackholed host")
	}
	if n.BindConnect(Handle(0x7000), "10.0.0.1:445") {
		t.Fatal("connect to blackholed target succeeded")
	}
	n.Unblackhole("evil.example.com")
	if _, ok := n.Resolve("evil.example.com"); !ok {
		t.Fatal("unblackholed host still fails")
	}
}

func TestRegisterOverridesResponderRefusal(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	n.SetResponder(refuseAllResponder{})
	if _, ok := n.Resolve("killswitch.example.com"); ok {
		t.Fatal("responder refusal ignored")
	}
	n.Register("killswitch.example.com")
	if !n.Registered("killswitch.example.com") {
		t.Fatal("Registered() false after Register")
	}
	if _, ok := n.Resolve("killswitch.example.com"); !ok {
		t.Fatal("registered domain did not resolve")
	}
	if !n.BindConnect(Handle(0x7000), "killswitch.example.com:80") {
		t.Fatal("connect to registered domain refused")
	}
	n.Deregister("killswitch.example.com")
	if _, ok := n.Resolve("killswitch.example.com"); ok {
		t.Fatal("deregistered domain still resolves")
	}
}

// refuseAllResponder scripts a world where nothing exists.
type refuseAllResponder struct{}

func (refuseAllResponder) ResolveHost(string) (string, bool, bool) { return "", false, true }
func (refuseAllResponder) AcceptConnect(string) (bool, bool)       { return false, true }
func (refuseAllResponder) ObserveSend(string, []byte)              {}
func (refuseAllResponder) Payload(string, int) ([]byte, bool)      { return nil, false }
func (refuseAllResponder) Mark() any                               { return nil }
func (refuseAllResponder) Rewind(any)                              {}

func TestResolveHookVerdicts(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	n.AddResolveHook(func(host string) ResolveVerdict {
		switch host {
		case "sinkhole.example.com":
			return VerdictRefuse
		case "forced.example.com":
			return VerdictResolve
		}
		return VerdictNone
	})
	if n.ResolveHookCount() != 1 {
		t.Fatalf("hook count = %d", n.ResolveHookCount())
	}
	if _, ok := n.Resolve("sinkhole.example.com"); ok {
		t.Fatal("VerdictRefuse did not block resolution")
	}
	if _, ok := n.Resolve("forced.example.com"); !ok {
		t.Fatal("VerdictResolve did not force resolution")
	}
	if _, ok := n.Resolve("other.example.com"); !ok {
		t.Fatal("VerdictNone should fall through to default success")
	}
}

func TestConnectSendRecvLifecycle(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	s := Handle(0x7000)
	if !n.BindConnect(s, "cc.example.com:8080") {
		t.Fatal("connect failed")
	}
	if !n.SendPayload(s, []byte("hello")) {
		t.Fatal("send on open socket failed")
	}
	// Unscripted, a bound socket leaves the reply to the caller's
	// synthetic payload.
	if _, _, handled := n.RecvPayload(s, 64); handled {
		t.Fatal("recv on an unscripted socket was handled")
	}
	n.CloseSocket(s)
	if n.SendPayload(s, []byte("x")) {
		t.Fatal("send on closed socket succeeded")
	}
	if _, ok, handled := n.RecvPayload(s, 8); ok || !handled {
		t.Fatal("recv on closed socket should fail as handled")
	}
}

func TestBindConnectAndHTTPGet(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	if !n.BindConnect(Handle(0x2000), "cc.example.com:445") {
		t.Fatal("BindConnect failed")
	}
	if !n.SendPayload(Handle(0x2000), make([]byte, 16)) {
		t.Fatal("send on bound socket failed")
	}
	n.Blackhole("cc2.example.com:445")
	if n.BindConnect(Handle(0x2004), "cc2.example.com:445") {
		t.Fatal("BindConnect to blackholed target succeeded")
	}
	h, ok := n.HTTPGet("http://payload.example.com/stage2.bin")
	if !ok || h == InvalidHandle {
		t.Fatalf("HTTPGet failed: %v %v", h, ok)
	}
	n.Blackhole("http://payload2.example.com/x")
	if _, ok := n.HTTPGet("http://payload2.example.com/x"); ok {
		t.Fatal("HTTPGet to blackholed URL succeeded")
	}
}

func TestSendRecvPayloadDialogue(t *testing.T) {
	n := New(DefaultIdentity()).Net()
	r := &echoResponder{}
	n.SetResponder(r)
	if !n.HasResponder() {
		t.Fatal("HasResponder false after SetResponder")
	}
	s := Handle(0x7000)
	n.BindConnect(s, "beacon.example.com:80")
	if !n.SendPayload(s, []byte("PING")) {
		t.Fatal("SendPayload failed")
	}
	if !bytes.Equal(r.lastSent, []byte("PING")) {
		t.Fatalf("responder observed %q", r.lastSent)
	}
	data, ok, handled := n.RecvPayload(s, 2)
	if !handled || !ok || !bytes.Equal(data, []byte("PI")) {
		t.Fatalf("RecvPayload = %q %v %v (want echo truncated to 2)", data, ok, handled)
	}
	// Without a responder, RecvPayload reports unhandled so callers fall
	// back to the legacy synthetic bytes.
	n.SetResponder(nil)
	if _, _, handled := n.RecvPayload(s, 8); handled {
		t.Fatal("RecvPayload handled without a responder")
	}
	if n.SendPayload(Handle(0xdead), []byte("x")) {
		t.Fatal("SendPayload on unknown socket succeeded")
	}
	if _, ok, handled := n.RecvPayload(Handle(0xdead), 8); ok || !handled {
		t.Fatal("RecvPayload on unknown socket should fail as handled")
	}
}

// echoResponder replies to recv with the bytes last sent.
type echoResponder struct{ lastSent []byte }

func (e *echoResponder) ResolveHost(string) (string, bool, bool) { return "", false, false }
func (e *echoResponder) AcceptConnect(string) (bool, bool)       { return false, false }
func (e *echoResponder) ObserveSend(_ string, data []byte) {
	e.lastSent = append(e.lastSent[:0], data...)
}
func (e *echoResponder) Payload(_ string, want int) ([]byte, bool) {
	return e.lastSent, true
}
func (e *echoResponder) Mark() any { return len(e.lastSent) }
func (e *echoResponder) Rewind(m any) {
	e.lastSent = e.lastSent[:m.(int)]
}

func TestSnapshotRewindsNetworkTables(t *testing.T) {
	e := New(DefaultIdentity())
	n := e.Net()
	n.AddDNS("pre.example.com", "1.1.1.1")
	n.Blackhole("preblack.example.com")
	n.Register("prereg.example.com")

	s := e.Snapshot()
	n.AddDNS("pre.example.com", "2.2.2.2") // overwrite
	n.AddDNS("new.example.com", "3.3.3.3") // add
	n.Unblackhole("preblack.example.com")
	n.Blackhole("newblack.example.com")
	n.Deregister("prereg.example.com")
	n.Register("newreg.example.com")
	n.AddResolveHook(func(string) ResolveVerdict { return VerdictRefuse })
	e.Reset(s)
	s.Close()

	if ip := n.dns["pre.example.com"]; ip != "1.1.1.1" {
		t.Fatalf("dns overwrite not rewound: %q", ip)
	}
	if _, ok := n.dns["new.example.com"]; ok {
		t.Fatal("dns addition not rewound")
	}
	if !n.Blackholed("preblack.example.com") || n.Blackholed("newblack.example.com") {
		t.Fatal("blackhole table not rewound")
	}
	if !n.Registered("prereg.example.com") || n.Registered("newreg.example.com") {
		t.Fatal("registration table not rewound")
	}
	if n.ResolveHookCount() != 0 {
		t.Fatalf("resolve hooks not rewound: %d", n.ResolveHookCount())
	}
}

func TestNestedSnapshotRewindsSocketsAndDNS(t *testing.T) {
	e := New(DefaultIdentity())
	n := e.Net()
	n.AddDNS("base.example.com", "1.1.1.1")

	outer := e.Snapshot()
	s1 := Handle(0x7000)
	n.BindConnect(s1, "a.example.com:80")
	n.AddDNS("outer.example.com", "2.2.2.2")

	inner := e.Snapshot()
	s2 := Handle(0x7004)
	n.BindConnect(s2, "b.example.com:80")
	n.AddDNS("inner.example.com", "3.3.3.3")
	n.CloseSocket(s1)

	e.Reset(inner)
	inner.Close()
	if _, ok := n.sockets[s2]; ok {
		t.Fatal("inner socket survived inner reset")
	}
	if _, ok := n.sockets[s1]; !ok {
		t.Fatal("outer socket not restored by inner reset")
	}
	if _, ok := n.dns["inner.example.com"]; ok {
		t.Fatal("inner DNS entry survived inner reset")
	}
	if n.dns["outer.example.com"] != "2.2.2.2" {
		t.Fatal("outer DNS entry lost by inner reset")
	}

	e.Reset(outer)
	outer.Close()
	if _, ok := n.sockets[s1]; ok {
		t.Fatal("outer socket survived outer reset")
	}
	if _, ok := n.dns["outer.example.com"]; ok {
		t.Fatal("outer DNS entry survived outer reset")
	}
	if n.dns["base.example.com"] != "1.1.1.1" {
		t.Fatal("pre-snapshot DNS entry lost")
	}
}

func TestSnapshotRewindsResponderState(t *testing.T) {
	e := New(DefaultIdentity())
	n := e.Net()
	r := &echoResponder{}
	n.SetResponder(r)
	s0 := Handle(0x7000)
	n.BindConnect(s0, "beacon.example.com:80")
	n.SendPayload(s0, []byte("AB"))

	snap := e.Snapshot()
	n.SendPayload(s0, []byte("ABCD"))
	if len(r.lastSent) != 4 {
		t.Fatalf("responder state = %d bytes", len(r.lastSent))
	}
	e.Reset(snap)
	snap.Close()
	if string(r.lastSent) != "AB" {
		t.Fatalf("responder state not rewound: %q", r.lastSent)
	}
}
