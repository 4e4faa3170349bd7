// Package fleet is the vaccine distribution subsystem: a
// version-ordered pack registry fronted by an HTTP/JSON sync protocol,
// and the concurrent host agents that poll it. It closes the gap between
// Phase-II vaccine generation and the paper's Phase-III assumption
// (§V) that vaccines somehow reach every end host: an analysis site
// publishes packs into a Registry served by cmd/vacserver, and a
// fleet.Agent on each host pulls deltas, installs them through the
// deploy daemon, and heartbeats its applied version back.
//
// Protocol (all JSON over HTTP):
//
//	GET  /v1/packs?since=<version>  -> DeltaResponse, ETag header
//	     If-None-Match / up-to-date -> 304 Not Modified
//	     &wait=<duration>           -> long-poll: park until a publish
//	                                   lands or the wait expires (304)
//	     since ahead of registry    -> full DeltaResponse, Reset=true
//	POST /v1/checkin                -> CheckinResponse
//	GET  /v1/metrics                -> MetricsSnapshot
//
// Versions are a single monotonic publish counter: every accepted
// vaccine publish gets the next version, so "give me everything after
// version N" is an exact delta and agents converge by chasing the
// latest version. ETags are vaccine.Pack content digests, so an agent
// that already holds the content skips the body even when its cached
// version counter is stale.
package fleet

import "autovac/internal/vaccine"

// HTTP paths of the sync protocol.
const (
	PathPacks   = "/v1/packs"
	PathCheckin = "/v1/checkin"
	PathMetrics = "/v1/metrics"
)

// DeltaResponse is the body of GET /v1/packs: every vaccine published
// after the requested version.
type DeltaResponse struct {
	// Since echoes the ?since= the delta starts after (0 = full pack).
	Since uint64
	// Version is the registry's latest version at serve time; the
	// agent's next poll passes it back as ?since=.
	Version uint64
	// Complete reports whether this is the full registry content
	// (Since == 0), as opposed to an incremental delta.
	Complete bool
	// Reset reports that the requested since was AHEAD of the registry
	// — typically an agent that outlived a registry restarted without
	// its write-ahead log. The payload is the full registry content and
	// the client must adopt Version even though it is lower than the
	// version it asked after.
	Reset bool `json:",omitempty"`
	// ETag is the vaccine.Pack digest of the payload, also sent as the
	// HTTP ETag header.
	ETag string
	// Generator identifies the publishing pipeline.
	Generator string `json:",omitempty"`
	// Vaccines is the delta payload, ordered by ascending version.
	Vaccines []vaccine.Vaccine
	// Versions holds each vaccine's publish version, aligned with
	// Vaccines. It rides only in the binary codec (never in JSON, so
	// the JSON wire format is unchanged): relays need it to mirror the
	// origin's version line exactly, ordinary agents ignore it.
	Versions []uint64 `json:"-"`
}

// CheckinRequest is the body of POST /v1/checkin: a host heartbeat
// reporting the applied registry version and interception activity.
type CheckinRequest struct {
	// Host is the reporting host's stable identifier.
	Host string
	// Version is the latest registry version the host has applied.
	Version uint64
	// Installed counts vaccines installed in the host's daemon.
	Installed int
	// Inspected and Intercepted are the daemon hook counters.
	Inspected   int
	Intercepted int
}

// CheckinResponse acknowledges a heartbeat.
type CheckinResponse struct {
	// Version is the registry's latest version: a host that sees its
	// applied version behind this knows to sync without waiting for
	// the next poll interval.
	Version uint64
}
