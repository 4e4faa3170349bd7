package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autovac/internal/fleet"
)

// wireCounter totals the bytes read and written on a server's
// connections, at the net.Conn level: headers and bodies, not TCP/IP
// overhead. It counts at the server's end because the server reads
// every request and writes every response in full, so the total
// repeats exactly; a client may close a connection with bytes unread.
type wireCounter struct{ n atomic.Int64 }

func (w *wireCounter) load() int64 { return w.n.Load() }

type countingConn struct {
	net.Conn
	total *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.total.n.Add(int64(n))
	return n, err
}

// Write counts before writing: once written, the peer can act on the
// bytes, and a count read after its reply must include them.
func (c *countingConn) Write(p []byte) (int, error) {
	c.total.n.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.total.n.Add(int64(n - len(p)))
	return n, err
}

type countingListener struct {
	net.Listener
	total *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, total: l.total}, nil
}

// newTransport returns a transport that keeps at most maxConns
// keep-alive connections.
func newTransport(maxConns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxIdleConns:        maxConns,
		IdleConnTimeout:     time.Minute,
	}
}

// switchRT forwards to a round tripper that can be replaced between
// passes, so long-lived agents switch between traced and untraced.
type switchRT struct {
	rt atomic.Pointer[http.RoundTripper]
}

func (s *switchRT) set(rt http.RoundTripper) { s.rt.Store(&rt) }

func (s *switchRT) RoundTrip(req *http.Request) (*http.Response, error) {
	return (*s.rt.Load()).RoundTrip(req)
}

// loopback is one HTTP server on 127.0.0.1 whose handler can be swapped
// between passes, so connections stay open across them. wire counts
// the bytes on its connections.
type loopback struct {
	url     string
	wire    wireCounter
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan error
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	lb.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := lb.handler.Load()
		if h == nil {
			http.Error(w, "no handler", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	})}
	go func() { lb.done <- lb.srv.Serve(countingListener{ln, &lb.wire}) }()
	return lb, nil
}

func (lb *loopback) set(h http.Handler) { lb.handler.Store(&h) }

// close stops the server and waits for its Serve loop to return. It is
// called with no request in flight, so closing every connection at once
// loses nothing (Shutdown would wait out connections the clients
// dialled but never used).
func (lb *loopback) close() error {
	err := lb.srv.Close()
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// spanKey carries the parent span and request id through a request's
// context.
type spanKey struct{}

type spanParent struct {
	id  int32
	req int64
}

func withParent(ctx context.Context, id int32, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanParent{id, req})
}

// capturedBody is a pack body an agent read inside a traced sync.
type capturedBody struct {
	contentType string
	body        []byte
}

// spanHeader carries a traced request's HTTP span id and request id to
// the server, as "<span>/<request>", so the server's span is recorded
// as the HTTP span's child.
const spanHeader = "X-Perfbench-Span"

// parseSpanHeader reads spanHeader; a request without it is a root.
func parseSpanHeader(v string) (parent int32, req int64) {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0
	}
	p, err1 := strconv.ParseInt(a, 10, 32)
	r, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0
	}
	return int32(p), r
}

// httpSpans is the traced hosts' round tripper: one span per request,
// named by path, under the sync span carried in the request context.
// The span covers the round trip up to the response headers. The agent
// reads the body itself, exactly as untraced, so connection reuse is
// unchanged; what it read of a 200 pack body is kept, per sync span,
// for the decode re-run.
type httpSpans struct {
	next  http.RoundTripper
	t     *tracer
	names map[string]string // URL path -> span name

	mu       sync.Mutex
	captured map[int32][]capturedBody // by sync span
}

// RoundTrip traces requests made inside a traced sync (their context
// carries the sync span) and passes every other request through.
func (h *httpSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	p, ok := req.Context().Value(spanKey{}).(spanParent)
	if !ok {
		return h.next.RoundTrip(req)
	}
	sp := h.t.start(h.names[req.URL.Path], p.id, p.req)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.Itoa(int(sp.id()))+"/"+strconv.FormatInt(p.req, 10))
	resp, err := h.next.RoundTrip(out)
	sp.close()
	if err != nil {
		return nil, err
	}
	if req.URL.Path == fleet.PathPacks && resp.StatusCode == http.StatusOK {
		contentType := resp.Header.Get("Content-Type")
		resp.Body = &captureBody{ReadCloser: resp.Body, done: func(body []byte) {
			h.mu.Lock()
			h.captured[p.id] = append(h.captured[p.id], capturedBody{contentType, body})
			h.mu.Unlock()
		}}
	}
	return resp, nil
}

// take returns and forgets the bodies captured under a sync span.
func (h *httpSpans) take(sync int32) []capturedBody {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.captured[sync]
	delete(h.captured, sync)
	return out
}

// captureBody keeps a copy of what the agent reads and hands it over
// when the agent closes the body.
type captureBody struct {
	io.ReadCloser
	buf  bytes.Buffer
	done func(body []byte)
}

func (b *captureBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *captureBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.buf.Bytes())
		b.done = nil
	}
	return err
}

// statusRecorder captures a handler's status code and body bytes.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	n, err := s.ResponseWriter.Write(b)
	s.bytes += n
	return n, err
}

// serverSpans wraps the handler hosts talk to: one span per request,
// named by route and status, under the HTTP span named in spanHeader,
// and the request and response body bytes of each route.
func serverSpans(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, req := parseSpanHeader(r.Header.Get(spanHeader))
		sp := t.start("", parent, req)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		route := "http.packs"
		switch {
		case r.URL.Path == fleet.PathCheckin:
			sp.s.name, route = "fleet.server.checkin", "http.checkin"
		case rec.status == http.StatusNotModified:
			sp.s.name = "fleet.server.packs_304"
		default:
			sp.s.name = "fleet.server.packs_200"
		}
		sp.close()
		t.addCount(route+".bytes", max(r.ContentLength, 0)+int64(rec.bytes))
	})
}
