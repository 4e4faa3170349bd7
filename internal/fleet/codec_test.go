package fleet

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"

	"autovac/internal/vaccine"
)

func mustEncodeBinary(t *testing.T, d *DeltaResponse) []byte {
	t.Helper()
	enc, err := EncodeDeltaBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestDeltaBinaryRoundTrip(t *testing.T) {
	reg := NewRegistry(0)
	reg.SetGenerator("codec-test")
	if _, _, err := reg.Publish(testVaccines("rt", 24)...); err != nil {
		t.Fatal(err)
	}
	for _, since := range []uint64{0, 10, 23} {
		d := reg.Delta(since)
		out, err := DecodeDeltaBinary(mustEncodeBinary(t, d))
		if err != nil {
			t.Fatalf("since=%d: %v", since, err)
		}
		if out.Since != d.Since || out.Version != d.Version ||
			out.Complete != d.Complete || out.Reset != d.Reset ||
			out.ETag != d.ETag || out.Generator != d.Generator {
			t.Fatalf("since=%d: frame fields changed:\nin:  %+v\nout: %+v", since, d, out)
		}
		if len(out.Vaccines) != len(d.Vaccines) || len(out.Versions) != len(d.Versions) {
			t.Fatalf("since=%d: %d/%d vaccines, %d/%d versions", since,
				len(out.Vaccines), len(d.Vaccines), len(out.Versions), len(d.Versions))
		}
		for i := range d.Vaccines {
			if d.Vaccines[i].Fingerprint() != out.Vaccines[i].Fingerprint() {
				t.Fatalf("since=%d: vaccine %d content changed", since, i)
			}
			if d.Versions[i] != out.Versions[i] {
				t.Fatalf("since=%d: version %d: %d != %d", since, i, d.Versions[i], out.Versions[i])
			}
		}
		// The decoded pack re-digests to the same ETag: content identity
		// survived the codec.
		p := vaccine.Pack{Generator: out.Generator, Vaccines: out.Vaccines}
		if p.Digest() != out.ETag {
			t.Fatalf("since=%d: decoded pack digest %s != ETag %s", since, p.Digest(), out.ETag)
		}
	}

	// Reset flag survives too.
	d := reg.Delta(0)
	d.Reset = true
	out, err := DecodeDeltaBinary(mustEncodeBinary(t, d))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Reset {
		t.Fatal("Reset flag lost")
	}
}

// TestDeltaBinaryAtLeastHalvesJSON pins the codec's reason to exist:
// on a multi-vaccine delta (the control-plane study publishes 8 per
// wave) the binary body must be at most half the JSON body.
func TestDeltaBinaryAtLeastHalvesJSON(t *testing.T) {
	reg := NewRegistry(0)
	reg.SetGenerator("codec-test")
	if _, _, err := reg.Publish(testVaccines("sz", 8)...); err != nil {
		t.Fatal(err)
	}
	d := reg.Delta(0)
	bin := mustEncodeBinary(t, d)
	js, _, err := encodeDelta(d, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin)*2 > len(js) {
		t.Fatalf("binary %dB vs JSON %dB: less than 2x smaller", len(bin), len(js))
	}
}

// TestJSONFallbackByteIdentical pins that negotiation cannot perturb
// legacy clients: the no-Accept response body is the exact bytes the
// pre-codec server wrote (json.Encoder form, trailing newline, no
// Versions field).
func TestJSONFallbackByteIdentical(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().SetGenerator("codec-test")
	srv.Registry().Publish(testVaccines("json", 6)...)

	resp := getDelta(t, ts.URL, "0", "")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypeJSON {
		t.Fatalf("Content-Type %q", got)
	}
	var legacy bytes.Buffer
	if err := json.NewEncoder(&legacy).Encode(srv.Registry().Delta(0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, legacy.Bytes()) {
		t.Fatalf("JSON response diverged from pre-codec form:\ngot:  %q\nwant: %q", body, legacy.Bytes())
	}
	if bytes.Contains(body, []byte("Versions")) {
		t.Fatal("per-vaccine versions leaked into the JSON encoding")
	}
}

func TestServerNegotiatesBinaryDelta(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().SetGenerator("codec-test")
	srv.Registry().Publish(testVaccines("neg", 12)...)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+PathPacks+"?since=0", nil)
	req.Header.Set("Accept", ContentTypeDelta)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !isBinaryDelta(ct) {
		t.Fatalf("Content-Type %q, want binary", ct)
	}
	d, err := DecodeDeltaBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Vaccines) != 12 || len(d.Versions) != 12 {
		t.Fatalf("binary delta: %d vaccines, %d versions", len(d.Vaccines), len(d.Versions))
	}
	// Same ETag vocabulary as JSON: a binary client's If-None-Match
	// gets the 304 fast path.
	etag := resp.Header.Get("ETag")
	if etag != `"`+d.ETag+`"` {
		t.Fatalf("ETag header %q vs body %q", etag, d.ETag)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("binary If-None-Match status %d, want 304", resp2.StatusCode)
	}
	snap := srv.MetricsSnapshot()
	if snap.BinaryDeltas != 1 {
		t.Fatalf("BinaryDeltas = %d, want 1", snap.BinaryDeltas)
	}
}

// TestEncodeCacheFanout pins the (since, version, encoding) cache: the
// second request at a cursor is a cache hit, each encoding caches
// independently, and a publish invalidates the generation.
func TestEncodeCacheFanout(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Registry().Publish(testVaccines("cache", 4)...)

	fetch := func(accept string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+PathPacks+"?since=0", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("Content-Type")
	}

	fetch("") // miss: first JSON encode
	fetch("") // hit
	if got := fetch(ContentTypeDelta); !isBinaryDelta(got) {
		t.Fatalf("Content-Type %q", got) // miss: binary cached separately
	}
	fetch(ContentTypeDelta) // hit
	if snap := srv.MetricsSnapshot(); snap.EncodeCacheHits != 2 {
		t.Fatalf("EncodeCacheHits = %d, want 2", snap.EncodeCacheHits)
	}

	// A publish moves the registry version: the next fetch must be a
	// fresh encode (a hit here would serve the stale 4-vaccine body).
	srv.Registry().Publish(testVaccines("cache2", 2)...)
	fetch("")
	if snap := srv.MetricsSnapshot(); snap.EncodeCacheHits != 2 {
		t.Fatalf("EncodeCacheHits = %d after publish, want still 2", snap.EncodeCacheHits)
	}
}

func TestDecodeDeltaBinaryMalformed(t *testing.T) {
	reg := NewRegistry(0)
	reg.Publish(testVaccines("mal", 16)...)
	valid := mustEncodeBinary(t, reg.Delta(0))

	truncCompressed := make([]byte, len(valid)-7)
	copy(truncCompressed, valid)
	trailing := append(append([]byte{}, mustEncodeBinary(t, &DeltaResponse{ETag: "x"})...), 0xAB)

	cases := map[string][]byte{
		"empty":               {},
		"short frame":         []byte("AVD"),
		"bad magic":           append([]byte("XXXX\x00"), valid[5:]...),
		"unknown flags":       {'A', 'V', 'D', '1', 0x80, 0},
		"empty payload":       []byte("AVD1\x00"),
		"truncated deflate":   truncCompressed,
		"trailing bytes":      trailing,
		"not deflate":         []byte("AVD1\x01garbage-not-a-deflate-stream"),
		"json posing as AVD1": append([]byte("AVD1\x00"), []byte(`{"Since":0}`)...),
	}
	for name, data := range cases {
		d, err := DecodeDeltaBinary(data)
		if err == nil {
			t.Errorf("%s: decoded successfully: %+v", name, d)
			continue
		}
		if !errors.Is(err, ErrDeltaMalformed) && !errors.Is(err, vaccine.ErrBinaryMalformed) {
			t.Errorf("%s: untyped error %v", name, err)
		}
	}
}

func TestAcceptAndContentTypeMatching(t *testing.T) {
	if !acceptsBinaryDelta(ContentTypeDelta) ||
		!acceptsBinaryDelta("application/json, "+ContentTypeDelta) {
		t.Fatal("binary Accept not recognised")
	}
	if acceptsBinaryDelta("application/json") || acceptsBinaryDelta("") {
		t.Fatal("JSON Accept misread as binary")
	}
	if !isBinaryDelta(ContentTypeDelta) || !isBinaryDelta(ContentTypeDelta+"; charset=binary") {
		t.Fatal("binary Content-Type not recognised")
	}
	if isBinaryDelta(ContentTypeJSON) {
		t.Fatal("JSON Content-Type misread as binary")
	}
	if !strings.HasPrefix(ContentTypeDelta, "application/") {
		t.Fatal("content type not a media type")
	}
}

// TestDeltaBinaryWarmEncodeDecodeAllocs pins the pooled DEFLATE state:
// once warm, encoding and decoding a 64-vaccine binary delta allocate
// about 30 KB each, where a new flate writer per frame made an encode
// cost 1.2 MB and a new reader made a decode cost 69 KB. The pooled
// writer must emit exactly what a new one emits.
func TestDeltaBinaryWarmEncodeDecodeAllocs(t *testing.T) {
	reg := NewRegistry(0)
	reg.SetGenerator("codec-test")
	if _, _, err := reg.Publish(testVaccines("warm", 64)...); err != nil {
		t.Fatal(err)
	}
	d := reg.Delta(0)
	frame := mustEncodeBinary(t, d)
	head := len(deltaMagic) + 1
	if frame[head-1]&deltaFlagCompressed == 0 {
		t.Fatal("64-vaccine frame is not compressed")
	}
	raw, err := inflate(frame[head:], maxDeltaPayload)
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	zw, err := flate.NewWriter(&fresh, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(raw)
	zw.Close()
	for i := 0; i < 3; i++ {
		if got := mustEncodeBinary(t, d); !bytes.Equal(got[head:], fresh.Bytes()) {
			t.Fatalf("warm encode %d: payload differs from a new flate writer's", i)
		}
	}

	decode := func() {
		out, err := DecodeDeltaBinary(frame)
		if err != nil || len(out.Vaccines) != 64 {
			t.Fatalf("decode: %v (%d vaccines)", err, len(out.Vaccines))
		}
	}
	encode := func() { mustEncodeBinary(t, d) }
	for _, c := range []struct {
		name   string
		op     func()
		budget uint64
	}{
		{"encode", encode, 64 << 10},
		{"decode", decode, 48 << 10},
	} {
		if got := medianAllocBytes(c.op); got > c.budget {
			t.Errorf("warm %s allocated %d bytes/op (budget %d)", c.name, got, c.budget)
		}
	}
}

// medianAllocBytes returns the median of the bytes op allocates over 21
// warm calls. The median keeps a call that finds its pool emptied by a
// garbage collection from deciding the result.
func medianAllocBytes(op func()) uint64 {
	op()
	var ms runtime.MemStats
	per := make([]uint64, 21)
	for i := range per {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		op()
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
	}
	slices.Sort(per)
	return per[len(per)/2]
}
