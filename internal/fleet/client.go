package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Retry defaults of the sync client. The retry budget is deliberately
// deeper than any periodic fault a lossy path is likely to inject: with
// the server's encode cache answering a woken herd in near-lockstep, a
// budget equal to a fault period can resonate with it (every attempt of
// one client landing on the faulting slot) and burn out on a fault rate
// the backoff would otherwise absorb.
const (
	DefaultMaxRetries  = 6
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// minJitterInterval is the floor every jittered delay is clamped to:
// below it rng.Int63n would be fed a non-positive bound (a panic for
// interval <= 0) and the poll loop would spin hot.
const minJitterInterval = time.Millisecond

// syncClient is the client side of the sync protocol, shared by Agent,
// Relay and SimulateControlPlane's hosts. It owns the cursor (version
// and ETag), the GET /v1/packs request, one bounded read of each
// response body, the decode chosen by Content-Type, validation of the
// delta against the request, the Reset rebase, the jittered-backoff
// retry, and the poll/long-poll loop. Each consumer supplies apply,
// which takes a validated delta before the cursor moves past it.
//
// The client is driven by one goroutine (sync, retry, run); version and
// the counters may also be read from any other goroutine.
type syncClient struct {
	hc       *http.Client
	packsURL string // "<base>/v1/packs?since="
	wait     string // "&wait=<d>" when long-polling
	binary   bool   // send Accept: application/x-autovac-delta
	apply    func(*DeltaResponse) (int, error)

	// The retry policy (see backoffDelay). rng is this client's own
	// jitter source: never shared, drawn only by the driving goroutine.
	maxRetries              int
	baseBackoff, maxBackoff time.Duration
	rng                     *rand.Rand

	etag string // quoted, for If-None-Match

	mu      sync.Mutex // guards version and stats
	version uint64
	stats   syncStats
}

// syncStats counts one client's protocol activity.
type syncStats struct {
	// syncs counts completed sync rounds: deltas plus notModified.
	syncs, deltas, notModified int
	// retries counts failed round trips that were retried; decodeErrors
	// the 200 responses whose body failed to decode or validate.
	retries, decodeErrors int
	// resyncs counts Reset deltas adopted; errors the failed cycles of
	// run (after retries).
	resyncs, errors int
}

// newSyncClient returns a client at cursor 0 for the server at base,
// with the default retry policy. longPoll > 0 parks each request on the
// server for up to that long.
func newSyncClient(hc *http.Client, base string, longPoll time.Duration, binary bool,
	seed int64, apply func(*DeltaResponse) (int, error)) *syncClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &syncClient{
		hc:          hc,
		packsURL:    strings.TrimRight(base, "/") + PathPacks + "?since=",
		binary:      binary,
		apply:       apply,
		maxRetries:  DefaultMaxRetries,
		baseBackoff: DefaultBaseBackoff,
		maxBackoff:  DefaultMaxBackoff,
		rng:         rand.New(rand.NewSource(seed)),
	}
	if longPoll > 0 {
		c.wait = "&wait=" + longPoll.String()
	}
	return c
}

// Version returns the cursor: the latest version applied.
func (c *syncClient) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// counters returns a copy of the counters.
func (c *syncClient) counters() syncStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// add bumps one counter of c.stats.
func (c *syncClient) add(n *int) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// maxPresizedBody caps the buffer do sizes from a response's
// Content-Length before a byte arrives, so a hostile header cannot make
// a client allocate up to maxDeltaPayload up front.
const maxPresizedBody = 16 << 20

// do performs one request and reads its whole body, bounded by
// maxDeltaPayload, before closing it: a body closed unread makes the
// transport drop the keep-alive connection, so the next request would
// dial again.
func (c *syncClient) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(io.LimitReader(resp.Body, maxDeltaPayload+1), resp.ContentLength)
	if err != nil {
		return nil, nil, err
	}
	if len(body) > maxDeltaPayload {
		return nil, nil, fmt.Errorf("%s %s: body exceeds %d bytes", req.Method, req.URL.Path, maxDeltaPayload)
	}
	return resp, body, nil
}

// readBody reads r to EOF like io.ReadAll, but into a buffer of the
// declared length n plus one byte (room for the read that returns EOF)
// when 0 <= n <= maxPresizedBody, so a body of the declared length is
// read without growing or copying the buffer. Past that, or with no
// length, the buffer grows as io.ReadAll grows it.
func readBody(r io.Reader, n int64) ([]byte, error) {
	size := 512
	if 0 <= n && n <= maxPresizedBody {
		size = int(n) + 1
	}
	b := make([]byte, 0, size)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// fetch performs one GET /v1/packs round trip at the cursor. A nil
// delta with nil error means 304 Not Modified (for a long-poll fetch:
// the wait expired with nothing published).
func (c *syncClient) fetch(ctx context.Context) (*DeltaResponse, error) {
	since := c.Version()
	url := c.packsURL + strconv.FormatUint(since, 10) + c.wait
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if c.etag != "" {
		req.Header.Set("If-None-Match", c.etag)
	}
	if c.binary {
		req.Header.Set("Accept", ContentTypeDelta)
	}
	resp, body, err := c.do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, nil
	case http.StatusOK:
		d, err := decodeDelta(resp.Header.Get("Content-Type"), body, since)
		if err != nil {
			c.add(&c.stats.decodeErrors)
			return nil, fmt.Errorf("decoding delta: %w", err)
		}
		return d, nil
	default:
		// Carry the first line of the error body: "500" alone cannot
		// distinguish an origin encode failure from an injected fault or
		// a relay refusing an upstream.
		return nil, fmt.Errorf("packs: %s (%s)", resp.Status, strings.TrimSpace(string(body[:min(len(body), 120)])))
	}
}

// decodeDelta decodes one 200 pack body under the encoding the server
// declared, then rejects frames that cannot be the answer to a request
// at cursor since: a missing content digest, or a delta cut after a
// cursor never sent (a cache or relay serving someone else's response).
// Reset deltas are exempt from the cursor check — they rebase the
// client by design. Any failure is a retryable sync error: the cursor
// and ETag are untouched, so the next attempt re-fetches from
// known-good state.
func decodeDelta(contentType string, body []byte, since uint64) (*DeltaResponse, error) {
	decode := DecodeDeltaJSON
	if isBinaryDelta(contentType) {
		decode = DecodeDeltaBinary
	}
	d, err := decode(body)
	if err != nil {
		return nil, err
	}
	if d.ETag == "" {
		return nil, errors.New("delta missing ETag")
	}
	if !d.Reset && d.Since != since {
		return nil, fmt.Errorf("delta for since=%d, requested %d", d.Since, since)
	}
	return d, nil
}

// sync performs one sync round: fetch the delta past the cursor (with
// retries), hand it to apply, and move the cursor to its version. It
// returns apply's count, 0 for a 304. An apply error leaves the cursor
// where it was and is not retried: the delta itself was well formed.
func (c *syncClient) sync(ctx context.Context) (int, error) {
	var d *DeltaResponse
	err := c.retry(ctx, func() (err error) {
		d, err = c.fetch(ctx)
		return err
	})
	if err != nil {
		return 0, err
	}
	if d == nil {
		c.mu.Lock()
		c.stats.syncs++
		c.stats.notModified++
		c.mu.Unlock()
		return 0, nil
	}
	if d.Version < c.Version() {
		// The server's version line restarted below ours: rebase on it,
		// exactly as for a Reset delta.
		d.Reset = true
	}
	n, err := c.apply(d)
	if err != nil {
		return 0, err
	}
	c.etag = `"` + d.ETag + `"`
	c.mu.Lock()
	c.version = d.Version
	c.stats.syncs++
	c.stats.deltas++
	if d.Reset {
		c.stats.resyncs++
	}
	c.mu.Unlock()
	return n, nil
}

// jitteredInterval returns d with ±50% jitter (uniform in [d/2, 3d/2)),
// clamping d to minJitterInterval first. Retry backoff and the poll
// loop both draw through it, so neither can panic on a degenerate
// duration.
func jitteredInterval(rng *rand.Rand, d time.Duration) time.Duration {
	if d < minJitterInterval {
		d = minJitterInterval
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// backoffDelay computes the sleep before retry attempt n (0-based):
// exponential growth with ±50% jitter, clamped to maxBackoff. The clamp
// applies to the jittered value, not just the exponential base —
// otherwise an attempt at the cap could draw up to 1.5×maxBackoff.
func (c *syncClient) backoffDelay(n int) time.Duration {
	d := c.baseBackoff << uint(n)
	if d > c.maxBackoff || d <= 0 {
		d = c.maxBackoff
	}
	return min(jitteredInterval(c.rng, d), c.maxBackoff)
}

// sleep waits d, or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retry runs op with bounded, jittered-exponential-backoff retries.
func (c *syncClient) retry(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= c.maxRetries {
			return err
		}
		c.add(&c.stats.retries)
		if err := sleep(ctx, c.backoffDelay(attempt)); err != nil {
			return err
		}
	}
}

// run calls cycle until ctx is cancelled. A long-polling client
// re-polls at once after a successful cycle — the park happens
// server-side — and a polling client pauses a jittered interval. After
// a failed cycle either pauses at least a saturated backoff, so a dead
// server is not hammered back to back.
func (c *syncClient) run(ctx context.Context, interval time.Duration, cycle func(context.Context) error) {
	for {
		err := cycle(ctx)
		if ctx.Err() != nil {
			return
		}
		var pause time.Duration
		if c.wait == "" {
			pause = jitteredInterval(c.rng, interval)
		}
		if err != nil {
			c.add(&c.stats.errors)
			pause = max(pause, c.backoffDelay(c.maxRetries))
		}
		if pause > 0 && sleep(ctx, pause) != nil {
			return
		}
	}
}
