package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer returns a Server over a fresh registry and an
// httptest.Server wrapping its handler.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewRegistry(0))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getDelta(t *testing.T, base string, since string, etag string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+PathPacks+"?since="+since, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestPacksDeltaAndNotModified(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("srv", 6)...)

	resp := getDelta(t, ts.URL, "0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full sync status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on 200")
	}
	var d DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(d.Vaccines) != 6 || d.Version != 6 || !d.Complete {
		t.Fatalf("bad delta: %+v", d)
	}
	if `"`+d.ETag+`"` != etag {
		t.Fatal("body ETag disagrees with header")
	}

	// Same content re-requested with the ETag: 304 via If-None-Match.
	if resp := getDelta(t, ts.URL, "0", etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status %d, want 304", resp.StatusCode)
	}
	// Up-to-date version: 304 via the since short-circuit.
	if resp := getDelta(t, ts.URL, "6", ""); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("since=latest status %d, want 304", resp.StatusCode)
	}

	snap := srv.MetricsSnapshot()
	if snap.DeltasServed != 1 || snap.NotModified != 2 || snap.Requests != 3 {
		t.Fatalf("metrics %+v", snap)
	}
	if snap.BytesServed == 0 {
		t.Fatal("no bytes counted")
	}
}

func TestPacksBadRequests(t *testing.T) {
	srv, ts := newTestServer(t)
	if resp := getDelta(t, ts.URL, "notanumber", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since status %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+PathPacks, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST packs status %d", resp.StatusCode)
	}
	if snap := srv.MetricsSnapshot(); snap.Errors != 2 {
		t.Fatalf("errors %d, want 2", snap.Errors)
	}
}

func TestCheckinEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("chk", 2)...)

	body := `{"Host":"LAB-1","Version":2,"Installed":2,"Inspected":9,"Intercepted":4}`
	resp, err := http.Post(ts.URL+PathCheckin, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack CheckinResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Version != 2 {
		t.Fatalf("checkin status %d ack %+v", resp.StatusCode, ack)
	}

	// Missing host is rejected.
	resp, _ = http.Post(ts.URL+PathCheckin, "application/json", strings.NewReader(`{}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty checkin status %d", resp.StatusCode)
	}

	st := srv.Registry().Fleet(time.Minute, time.Now())
	if st.ActiveHosts != 1 || st.Intercepted != 4 {
		t.Fatalf("fleet status %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("m", 3)...)
	getDelta(t, ts.URL, "0", "").Body.Close()

	resp, err := http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 || snap.Vaccines != 3 || snap.DeltasServed != 1 {
		t.Fatalf("metrics body %+v", snap)
	}
}

// getDeltaWait issues a long-poll pack request.
func getDeltaWait(t *testing.T, base, since, wait string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + PathPacks + "?since=" + since + "&wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPacksLongPollWakesOnPublish parks a long-poll request and
// publishes mid-wait: the delta must fire at publish time, not at the
// wait deadline.
func TestPacksLongPollWakesOnPublish(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("lp", 2)...)

	published := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv.Registry().Publish(testVaccines("lp-late", 1)...)
		close(published)
	}()

	start := time.Now()
	resp := getDeltaWait(t, ts.URL, "2", "10s")
	elapsed := time.Since(start)
	<-published
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status %d, want 200", resp.StatusCode)
	}
	var d DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(d.Vaccines) != 1 || d.Version != 3 {
		t.Fatalf("woken delta: %d vaccines, version %d; want 1, 3", len(d.Vaccines), d.Version)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("long-poll took %v — it slept to the deadline instead of waking on publish", elapsed)
	}
	if snap := srv.MetricsSnapshot(); snap.LongPolls != 1 {
		t.Fatalf("long-poll counter %d, want 1", snap.LongPolls)
	}
}

// TestPacksLongPollTimeout304 lets the wait expire: the park must end
// in a 304 with a valid ETag, same as a plain up-to-date poll.
func TestPacksLongPollTimeout304(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("lpt", 2)...)

	start := time.Now()
	resp := getDeltaWait(t, ts.URL, "2", "60ms")
	elapsed := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("expired long-poll status %d, want 304", resp.StatusCode)
	}
	if elapsed < 60*time.Millisecond {
		t.Fatalf("long-poll returned after %v, before the 60ms wait", elapsed)
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("expired long-poll 304 carries no ETag")
	}

	// A malformed wait is a client error, not a park.
	resp = getDeltaWait(t, ts.URL, "2", "bogus")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsLatencyExcludesLongPollPark parks one long-poll until its
// wait expires, then reads /v1/metrics: the handler latency quantiles
// must report the server's work on that request, not the client's
// wait= spent parked.
func TestMetricsLatencyExcludesLongPollPark(t *testing.T) {
	const wait = 300 * time.Millisecond
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("park", 2)...)

	start := time.Now()
	resp := getDeltaWait(t, ts.URL, "2", wait.String())
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || time.Since(start) < wait {
		t.Fatalf("long-poll status %d after %v, want a 304 after the %v wait",
			resp.StatusCode, time.Since(start), wait)
	}

	resp, err := http.Get(ts.URL + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.LongPolls != 1 || snap.NotModified != 1 {
		t.Fatalf("metrics %+v, want one parked 304", snap)
	}
	if snap.P99Micros >= uint64(wait.Microseconds()) {
		t.Fatalf("P99Micros = %d after one parked 304, want below the %v wait", snap.P99Micros, wait)
	}
}

// TestPacksResyncAheadOfRegistry pins the agent-ahead-of-restarted-
// registry recovery: a since beyond the registry's latest must be
// answered with the full content marked Reset — not the 304-forever
// wedge the old short-circuit produced.
func TestPacksResyncAheadOfRegistry(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("rs", 3)...)

	resp := getDelta(t, ts.URL, "99", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ahead-of-registry status %d, want 200", resp.StatusCode)
	}
	var d DeltaResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !d.Reset || !d.Complete || d.Version != 3 || len(d.Vaccines) != 3 {
		t.Fatalf("resync delta: reset %v complete %v version %d vaccines %d",
			d.Reset, d.Complete, d.Version, len(d.Vaccines))
	}
	if snap := srv.MetricsSnapshot(); snap.Resyncs != 1 {
		t.Fatalf("resync counter %d, want 1", snap.Resyncs)
	}
}

// TestCheap304ETagMatchesDeltaDigest pins the validator unification:
// the up-to-date fast path must emit the same ETag the equivalent
// (empty) delta response would carry — pack-digest form, not the old
// "v<version>" counter form that gave one resource two validator
// vocabularies.
func TestCheap304ETagMatchesDeltaDigest(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("et", 3)...)

	resp := getDelta(t, ts.URL, "3", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("up-to-date status %d, want 304", resp.StatusCode)
	}
	want := `"` + srv.Registry().Delta(3).ETag + `"`
	if got := resp.Header.Get("ETag"); got != want {
		t.Fatalf("cheap-304 ETag %s, want delta digest %s", got, want)
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	var h latencyHist
	for i := 0; i < 99; i++ {
		h.observe(10 * time.Microsecond)
	}
	h.observe(100 * time.Millisecond)
	p50, p99 := h.quantile(0.50), h.quantile(0.99)
	if p50 > 64*time.Microsecond {
		t.Fatalf("p50 %v too high", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v below p50 %v", p99, p50)
	}
	if h.quantile(1.0) < 100*time.Millisecond {
		t.Fatalf("max quantile %v misses the outlier", h.quantile(1.0))
	}
}
