// Package vaccine defines the malware-vaccine model of the paper's
// taxonomy (§II-A): a system resource whose presence or inaccessibility
// immunizes a host against a malware sample, classified by identifier
// type (static / partial static / algorithm-deterministic), by
// effectiveness (full or partial immunization, Types I–IV), and by
// delivery mechanism (one-time direct injection or vaccine daemon).
package vaccine

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"autovac/internal/determinism"
	"autovac/internal/impact"
	"autovac/internal/winenv"
)

// Polarity says how the vaccine frustrates the malware's resource
// logic — the two behaviours in the paper's definition (§II-A).
type Polarity int

// Polarities.
const (
	// SimulatePresence plants the resource so the malware believes the
	// machine is already infected (or occupied).
	SimulatePresence Polarity = iota
	// BlockAccess prevents the malware from creating/using the
	// resource (privilege-restricted placeholder or daemon refusal).
	BlockAccess
)

// String names the polarity.
func (p Polarity) String() string {
	if p == BlockAccess {
		return "block-access"
	}
	return "simulate-presence"
}

// Delivery is the deployment mechanism (§II-A, §V).
type Delivery int

// Delivery mechanisms.
const (
	// DirectInjection is a one-time injection of concrete resources.
	DirectInjection Delivery = iota
	// VaccineDaemon is a resident interceptor, needed for partial
	// static identifiers (pattern matching) and for re-generating
	// algorithm-deterministic identifiers when host facts change.
	VaccineDaemon
)

// String names the delivery mechanism.
func (d Delivery) String() string {
	if d == VaccineDaemon {
		return "daemon"
	}
	return "direct-injection"
}

// IdentifierClass mirrors determinism.Class for serialization clarity.
type IdentifierClass = determinism.Class

// Vaccine is one generated malware vaccine.
type Vaccine struct {
	// ID is a stable identifier: "<sample>/<resource>/<n>".
	ID string
	// Sample, Family, and Category identify the malware it immunizes
	// against.
	Sample   string
	Family   string `json:",omitempty"`
	Category string `json:",omitempty"`
	// Resource is the namespace the vaccine lives in.
	Resource winenv.ResourceKind
	// Identifier is the concrete resource identifier (for static
	// vaccines and for the generating host's algorithm-deterministic
	// value).
	Identifier string
	// Pattern is the wildcard pattern for partial-static vaccines.
	Pattern string `json:",omitempty"`
	// Class is the identifier class.
	Class IdentifierClass
	// Op is the malware's observed operation on the resource.
	Op string
	// API is the call the vaccine frustrates.
	API string
	// CallerPC is the call site, for reproducibility.
	CallerPC int
	// Effect is the primary immunization effect; Effects lists all.
	Effect  impact.Effect
	Effects []impact.Effect `json:",omitempty"`
	// Polarity says whether the vaccine simulates presence or blocks
	// access.
	Polarity Polarity
	// Delivery is the deployment mechanism.
	Delivery Delivery
	// Slice is the identifier-generation slice for
	// algorithm-deterministic vaccines (replayed per host).
	Slice *determinism.Slice `json:",omitempty"`
	// BDR is the measured Behavior Decreasing Ratio, when evaluated.
	BDR float64 `json:",omitempty"`
}

// FullImmunization reports whether the vaccine completely stops the
// malware.
func (v *Vaccine) FullImmunization() bool { return v.Effect == impact.Full }

// Validate checks internal consistency.
func (v *Vaccine) Validate() error {
	if v.ID == "" || v.Sample == "" {
		return fmt.Errorf("vaccine: missing ID or sample")
	}
	if !v.Resource.Valid() {
		return fmt.Errorf("vaccine %s: invalid resource kind", v.ID)
	}
	switch v.Class {
	case determinism.Static:
		if v.Identifier == "" {
			return fmt.Errorf("vaccine %s: static without identifier", v.ID)
		}
	case determinism.PartialStatic:
		if v.Pattern == "" {
			return fmt.Errorf("vaccine %s: partial-static without pattern", v.ID)
		}
		if v.Delivery != VaccineDaemon {
			return fmt.Errorf("vaccine %s: partial-static requires daemon delivery", v.ID)
		}
	case determinism.AlgorithmDeterministic:
		if v.Slice == nil {
			return fmt.Errorf("vaccine %s: algorithm-deterministic without slice", v.ID)
		}
	default:
		return fmt.Errorf("vaccine %s: non-deterministic identifiers are not deployable", v.ID)
	}
	if v.Effect == impact.NoImmunization {
		return fmt.Errorf("vaccine %s: no immunization effect", v.ID)
	}
	if v.Resource == winenv.KindDomain {
		// Domain vaccines deploy into the DNS world (sinkhole
		// registrations and blackholes), so the identifier must be a
		// plausible network name, not a local namespace path.
		id := v.Identifier
		if v.Class == determinism.PartialStatic {
			id = v.Pattern
		}
		if strings.ContainsAny(id, "\\ \t\r\n") {
			return fmt.Errorf("vaccine %s: malformed domain identifier %q", v.ID, id)
		}
	}
	return nil
}

// String renders a one-line summary.
func (v *Vaccine) String() string {
	id := v.Identifier
	if v.Class == determinism.PartialStatic {
		id = v.Pattern
	}
	return fmt.Sprintf("%s [%s %s %q %s %s %s]",
		v.ID, v.Resource, v.Op, id, v.Class, v.Effect, v.Delivery)
}

// AnalysisStats summarizes the corpus analysis that produced a pack:
// how many samples succeeded, failed, or panicked, and how long the
// run took. It travels inside packs so distribution servers can
// surface analysis health alongside distribution metrics.
type AnalysisStats struct {
	// Analyzed counts samples analysed successfully.
	Analyzed int
	// Failed counts samples whose analysis errored (panics included).
	Failed int
	// Panicked counts the subset of Failed that panicked.
	Panicked int
	// Skipped counts samples never started (cancellation/error budget).
	Skipped int
	// TriageSkipped counts samples Phase-0 triage proved unable to
	// invoke any resource API (recovered API surface), skipping their
	// emulation entirely.
	TriageSkipped int `json:",omitempty"`
	// WallMillis is the run's wall time in milliseconds.
	WallMillis int64
}

// Add accumulates another run's statistics (packs from several runs
// may land in one registry).
func (a *AnalysisStats) Add(b AnalysisStats) {
	a.Analyzed += b.Analyzed
	a.Failed += b.Failed
	a.Panicked += b.Panicked
	a.Skipped += b.Skipped
	a.TriageSkipped += b.TriageSkipped
	a.WallMillis += b.WallMillis
}

// Pack is a serializable set of vaccines (the unit shipped to end
// hosts).
type Pack struct {
	// Generator identifies the producing pipeline version.
	Generator string
	// Vaccines is the payload.
	Vaccines []Vaccine
	// Analysis, when present, summarizes the corpus run that produced
	// the pack (partial runs still ship their completed vaccines).
	Analysis *AnalysisStats `json:",omitempty"`
}

// WriteJSON serializes the pack.
func (p *Pack) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("vaccine: encoding pack: %w", err)
	}
	return nil
}

// ReadPack deserializes a pack and validates every vaccine.
func ReadPack(r io.Reader) (*Pack, error) {
	var p Pack
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("vaccine: decoding pack: %w", err)
	}
	for i := range p.Vaccines {
		if err := p.Vaccines[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &p, nil
}
