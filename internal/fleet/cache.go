package fleet

import (
	"bytes"
	"encoding/json"
	"sync"
)

// deltaCache memoises materialized deltas and their encoded bodies
// keyed by (since, version, encoding). The win is fan-out shaped: when
// a publish wakes N parked long-pollers at the same cursor — the
// steady state of both an origin under a converged fleet and an edge
// relay under its downstream agents — the log copy, digest, and
// encode run once and N-1 requests are served the cached bytes.
//
// Correctness leans on the registry's version fence: a cached body for
// (since, v) is exactly the vaccines in (since, v], which never
// changes after the fact, so an entry can only go stale by the
// registry moving PAST it — and the key's version component then stops
// matching reg.Latest(), making the entry unreachable. Lookups clear
// the map whenever the registry version moved (one generation of
// cursors at a time is all fan-out needs), and an insert cap bounds
// the memory a scan of pathological cursors could pin.
type deltaCache struct {
	mu      sync.Mutex
	version uint64
	entries map[deltaKey]*cachedDelta
}

// deltaKey identifies one encoded response body.
type deltaKey struct {
	since   uint64
	version uint64
	binary  bool
}

// cachedDelta is one materialized, encoded delta.
type cachedDelta struct {
	etag        string // quoted, ready for the ETag header
	contentType string
	body        []byte
}

// maxCachedDeltas bounds the per-generation entry count. Distinct
// live cursors collapse to a handful in practice (agents are either
// converged or one publish behind); the cap only matters against a
// client sweeping arbitrary since values.
const maxCachedDeltas = 256

func newDeltaCache() *deltaCache {
	return &deltaCache{entries: make(map[deltaKey]*cachedDelta)}
}

// get returns the encoded delta for since under the requested
// encoding, computing and caching it on miss.
func (c *deltaCache) get(reg *Registry, since uint64, binary bool) (*cachedDelta, bool, error) {
	latest := reg.Latest()
	c.mu.Lock()
	if c.version != latest {
		c.version = latest
		clear(c.entries)
	}
	if e, ok := c.entries[deltaKey{since, latest, binary}]; ok {
		c.mu.Unlock()
		return e, true, nil
	}
	c.mu.Unlock()

	d := reg.Delta(since)
	body, contentType, err := encodeDelta(d, binary)
	if err != nil {
		return nil, false, err
	}
	e := &cachedDelta{etag: `"` + d.ETag + `"`, contentType: contentType, body: body}
	c.mu.Lock()
	// Store under the fence the delta was actually cut at (a publish
	// racing the scan makes it differ from latest; such an entry is
	// simply never hit). The generation clear above keeps the map from
	// accumulating across versions; the cap bounds one generation.
	if len(c.entries) < maxCachedDeltas {
		c.entries[deltaKey{since, d.Version, binary}] = e
	}
	c.mu.Unlock()
	return e, false, nil
}

// encodeDelta renders one DeltaResponse body. The JSON form is the
// exact pre-codec encoding (json.Encoder, trailing newline included),
// so negotiation cannot perturb legacy clients byte-wise.
func encodeDelta(d *DeltaResponse, binary bool) ([]byte, string, error) {
	if binary {
		body, err := EncodeDeltaBinary(d)
		return body, ContentTypeDelta, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), ContentTypeJSON, nil
}
