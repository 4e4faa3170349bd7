// Package impact classifies what a resource mutation did to a malware
// execution — the immunization-effect taxonomy of the paper's §IV-B:
// full immunization (the malware kills itself) and the four partial
// types (disable kernel injection, disable massive network behaviour,
// disable persistence, disable benign-process injection). It also
// computes the Behavior Decreasing Ratio (BDR) of §VI-E.
package impact

import (
	"strings"

	"autovac/internal/alignment"
	"autovac/internal/trace"
	"autovac/internal/winapi"
)

// Effect is one immunization effect.
type Effect int

// Effects, in priority order: when a mutation produces several, the
// highest-priority one is the vaccine's primary classification.
const (
	// NoImmunization means the mutation did not meaningfully change
	// the malware's behaviour.
	NoImmunization Effect = iota
	// Full immunization: the malware terminated itself.
	Full
	// TypeI: kernel injection disabled (driver service registration
	// lost).
	TypeI
	// TypeII: massive network behaviour disabled (C&C, propagation).
	TypeII
	// TypeIII: persistence disabled (Run keys, startup, services,
	// winlogon).
	TypeIII
	// TypeIV: benign-process injection disabled.
	TypeIV
)

// String names the effect as the paper's tables do.
func (e Effect) String() string {
	switch e {
	case Full:
		return "Full"
	case TypeI:
		return "Type-I"
	case TypeII:
		return "Type-II"
	case TypeIII:
		return "Type-III"
	case TypeIV:
		return "Type-IV"
	default:
		return "None"
	}
}

// Partial reports whether the effect is one of the four partial types.
func (e Effect) Partial() bool { return e >= TypeI && e <= TypeIV }

// Result is the classification of one mutation experiment.
type Result struct {
	// Primary is the highest-priority effect observed.
	Primary Effect
	// Effects lists every observed effect (ordered by priority).
	Effects []Effect
	// Diff is the alignment difference the classification derives from.
	Diff alignment.Diff
}

// Immunizing reports whether the mutation achieved any immunization.
func (r Result) Immunizing() bool { return r.Primary != NoImmunization }

// Has reports whether a specific effect was observed.
func (r Result) Has(e Effect) bool {
	for _, x := range r.Effects {
		if x == e {
			return true
		}
	}
	return false
}

// Options selects analysis variants for ablation studies.
type Options struct {
	// Greedy uses the paper's literal Algorithm 1 (greedy anchor scan)
	// instead of the LCS alignment.
	Greedy bool
	// DisableFlips ignores success→failure flips of aligned calls and
	// classifies from call losses only (the paper's original scheme).
	DisableFlips bool
}

// Classify aligns the mutated trace against the natural one and derives
// the immunization effects.
func Classify(mutated, natural *trace.Trace) Result {
	return ClassifyWith(mutated, natural, Options{})
}

// ClassifyWith is Classify with explicit analysis options.
func ClassifyWith(mutated, natural *trace.Trace, opts Options) Result {
	var d alignment.Diff
	if opts.Greedy {
		d = alignment.AlignGreedy(mutated.Calls, natural.Calls)
	} else {
		d = alignment.AlignTraces(mutated, natural)
	}
	return classify(d, mutated, natural, opts)
}

// ClassifyKeyed is Classify with the natural trace's alignment keys
// computed by the caller (keysN must be alignment.KeysOf(natural.Calls)),
// for classifying many mutated runs against one natural run.
func ClassifyKeyed(mutated, natural *trace.Trace, keysN []alignment.Key) Result {
	return classify(alignment.AlignKeyed(mutated.Calls, natural.Calls, keysN), mutated, natural, Options{})
}

// classify derives the immunization effects from the alignment diff d
// of mutated against natural.
func classify(d alignment.Diff, mutated, natural *trace.Trace, opts Options) Result {
	var effects []Effect

	// Full immunization: the mutated run newly terminates itself
	// (termination API in Δm), or it self-terminated while the natural
	// run did not.
	if alignment.ContainsAPI(d.DeltaM, winapi.TerminationAPIs()...) ||
		(mutated.Exit == trace.ExitProcess && natural.Exit != trace.ExitProcess) {
		effects = append(effects, Full)
	}

	// Type-I: kernel-injection activity lost. Either the SCM/driver
	// registration calls disappear, or file operations on a .sys path
	// disappear.
	lostKernel := alignment.ContainsAPI(d.DeltaN, winapi.KernelInjectionAPIs()...) &&
		!alignment.ContainsAPI(d.DeltaM, winapi.KernelInjectionAPIs()...)
	if !lostKernel {
		for _, c := range d.DeltaN {
			if c.ResourceKind == "file" && strings.HasSuffix(strings.ToLower(c.Identifier), ".sys") {
				lostKernel = true
				break
			}
		}
	}
	if lostKernel && hasKernelEvidence(d.DeltaN) {
		effects = append(effects, TypeI)
	}

	// Type-II: the natural run is full of network calls the mutated run
	// no longer performs.
	if alignment.ContainsAPI(d.DeltaN, winapi.NetworkAPIs()...) &&
		!alignment.ContainsAPI(d.DeltaM, winapi.NetworkAPIs()...) {
		effects = append(effects, TypeII)
	}

	// Type-III: persistence operations lost — Run-subkey writes,
	// startup-folder or system.ini file operations, new service
	// entries, winlogon access (§IV-B's four autostart channels).
	if lostPersistence(d.DeltaN) && !lostPersistence(d.DeltaM) {
		effects = append(effects, TypeIII)
	}

	// Type-IV: benign-process injection lost.
	if lostProcessInjection(d.DeltaN) && !lostProcessInjection(d.DeltaM) {
		effects = append(effects, TypeIV)
	}

	// Result flips: aligned calls whose effect was frustrated. The call
	// sequence is unchanged, but a naturally successful operation now
	// fails — a blocked driver drop is still Type-I, a denied Run-value
	// write is still Type-III, a failed injection is still Type-IV.
	if !opts.DisableFlips {
		for _, e := range flipEffects(d.Flips) {
			if !containsEffect(effects, e) {
				effects = append(effects, e)
			}
		}
	}
	sortEffects(effects)

	r := Result{Effects: effects, Diff: d}
	if len(effects) > 0 {
		r.Primary = effects[0]
		for _, e := range effects {
			if e < r.Primary && e != NoImmunization {
				r.Primary = e
			}
		}
	}
	return r
}

// flipEffects classifies naturally-successful operations that the
// mutation turned into failures.
func flipEffects(flips []alignment.Flip) []Effect {
	var out []Effect
	add := func(e Effect) {
		if !containsEffect(out, e) {
			out = append(out, e)
		}
	}
	for _, f := range flips {
		if !f.Natural.Success || f.Mutated.Success {
			continue // only care about frustrated operations
		}
		c := f.Natural
		id := strings.ToLower(c.Identifier)
		switch {
		case strings.HasSuffix(id, ".sys"),
			c.API == "CreateServiceA" && argsMention(c, ".sys"):
			add(TypeI)
		case c.API == "CreateServiceA", c.API == "StartServiceA":
			add(TypeIII) // new service entry is an autostart channel
		case c.ResourceKind == "registry" &&
			(strings.Contains(id, `\run\`) || strings.HasSuffix(id, `\run`) ||
				strings.Contains(id, "winlogon")):
			add(TypeIII)
		case c.ResourceKind == "file" &&
			(strings.Contains(id, "startup") || strings.Contains(id, "system.ini")):
			add(TypeIII)
		case c.API == "WriteProcessMemory", c.API == "CreateRemoteThread":
			add(TypeIV)
		case isNetworkAPI(c.API):
			add(TypeII)
		}
	}
	return out
}

// argsMention reports whether any resolved string argument contains the
// fragment (case-insensitively).
func argsMention(c trace.APICall, frag string) bool {
	for _, a := range c.Args {
		if a.Str != "" && strings.Contains(strings.ToLower(a.Str), frag) {
			return true
		}
	}
	return false
}

// isNetworkAPI reports membership in the network API set.
func isNetworkAPI(name string) bool {
	for _, n := range winapi.NetworkAPIs() {
		if n == name {
			return true
		}
	}
	return false
}

func containsEffect(es []Effect, e Effect) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// sortEffects orders effects by priority (enum order).
func sortEffects(es []Effect) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j] < es[j-1]; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// hasKernelEvidence requires a CreateService/StartService loss or a
// .sys file loss, not merely an OpenSCManager call.
func hasKernelEvidence(delta []trace.APICall) bool {
	for _, c := range delta {
		switch c.API {
		case "CreateServiceA", "StartServiceA":
			return true
		}
		if c.ResourceKind == "file" && strings.HasSuffix(strings.ToLower(c.Identifier), ".sys") {
			return true
		}
	}
	return false
}

// lostPersistence detects autostart operations in a difference set.
func lostPersistence(delta []trace.APICall) bool {
	for _, c := range delta {
		id := strings.ToLower(c.Identifier)
		switch {
		case c.ResourceKind == "registry" &&
			(strings.Contains(id, `\run\`) || strings.HasSuffix(id, `\run`) ||
				strings.Contains(id, "winlogon")):
			return true
		case c.ResourceKind == "file" &&
			(strings.Contains(id, "startup") || strings.Contains(id, "system.ini")):
			return true
		case c.API == "CreateServiceA" && c.Op == "create":
			return true
		}
	}
	return false
}

// lostProcessInjection detects lost process-level behaviour: injection
// primitives targeting benign system processes, or the execution of a
// malware component process.
func lostProcessInjection(delta []trace.APICall) bool {
	victims := map[string]bool{
		"explorer.exe": true, "svchost.exe": true, "winlogon.exe": true,
	}
	for _, c := range delta {
		switch c.API {
		case "WriteProcessMemory", "CreateRemoteThread":
			if victims[strings.ToLower(c.Identifier)] || c.Identifier == "" {
				return true
			}
		case "OpenProcessByNameA":
			if victims[strings.ToLower(c.Identifier)] {
				return true
			}
		case "CreateProcessA":
			// A lost component start (the process-presence-marker case).
			return true
		}
	}
	return false
}

// BDR computes the Behavior Decreasing Ratio of §VI-E:
// (Nn - Nd) / Nn, where Nn and Nd are the native-call counts of the
// normal and vaccine-deployed executions. Larger means the vaccine
// removed more behaviour. A deployed run with MORE calls yields 0.
func BDR(normal, deployed *trace.Trace) float64 {
	nn := normal.NativeCallCount()
	if nn == 0 {
		return 0
	}
	nd := deployed.NativeCallCount()
	if nd >= nn {
		return 0
	}
	return float64(nn-nd) / float64(nn)
}
