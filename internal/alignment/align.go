// Package alignment implements the trace differential analysis of
// AUTOVAC's impact step (paper §IV-B, Algorithm 1): aligning a natural
// API-call trace with a resource-mutated one and computing the
// difference sets Δm (calls only in the mutated run) and Δn (calls only
// in the natural run).
//
// Alignment follows Zeller's execution-alignment idea at API
// granularity: two calls align when their calling execution contexts —
// the triple <API-name, caller-PC, static parameter list> — are
// equivalent. The difference extraction uses a longest-common-
// subsequence over those context keys, which subsumes the linear
// anchor-scan of the paper's Algorithm 1 and handles multiple aligned
// regions.
package alignment

import (
	"strconv"

	"autovac/internal/trace"
)

// Key is the calling execution context two calls must share to align:
// <API-name, Caller-PC, static parameters>. Dynamic parameters (handles,
// buffer pointers) are excluded, exactly as §IV-B prescribes.
type Key struct {
	API      string
	CallerPC int
	Params   string
}

// KeyOf derives the alignment key of a call record. Params lists the
// static arguments as "i=str", or "i=0x…" when there is no string,
// joined by "|"; it is built in a stack buffer, so the key costs at
// most the one Params string.
func KeyOf(c trace.APICall) Key {
	var buf [128]byte
	b := buf[:0]
	for i, a := range c.Args {
		if !a.Static {
			continue
		}
		if len(b) > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '=')
		if a.Str != "" {
			b = append(b, a.Str...)
		} else {
			b = append(b, "0x"...)
			b = strconv.AppendUint(b, uint64(a.Raw), 16)
		}
	}
	return Key{API: c.API, CallerPC: c.CallerPC, Params: string(b)}
}

// KeysOf returns the alignment key of every call, in order.
func KeysOf(calls []trace.APICall) []Key {
	keys := make([]Key, len(calls))
	for i := range calls {
		keys[i] = KeyOf(calls[i])
	}
	return keys
}

// SameContexts reports whether two call lists agree call by call on
// every field Align reads: API, caller PC, success, and each argument's
// static flag and, for static arguments, the string (or the raw value
// when there is no string). Align returns an empty diff for such a
// pair, so a caller expecting equal traces can test this first and
// skip building keys and the LCS table. It compares fields, not keys,
// so it may answer false where the keys happen to match; Align is the
// authority then.
func SameContexts(a, b []trace.APICall) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Success != b[i].Success || !sameContext(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// sameContext reports whether two calls agree on every field KeyOf
// reads: API, caller PC, and each argument's static flag and, for
// static arguments, the string (or the raw value when there is no
// string). Agreement implies equal keys.
func sameContext(x, y *trace.APICall) bool {
	if x.API != y.API || x.CallerPC != y.CallerPC || len(x.Args) != len(y.Args) {
		return false
	}
	for j := range x.Args {
		p, q := &x.Args[j], &y.Args[j]
		if p.Static != q.Static {
			return false
		}
		if p.Static && (p.Str != q.Str || (p.Str == "" && p.Raw != q.Raw)) {
			return false
		}
	}
	return true
}

// Flip is an aligned call pair whose success status differs between
// the two executions: the call still happens, but its effect is
// frustrated (a blocked persistence write, a denied driver drop).
type Flip struct {
	Mutated trace.APICall
	Natural trace.APICall
}

// Diff is the result of aligning two traces.
type Diff struct {
	// DeltaM holds calls present only in the mutated trace.
	DeltaM []trace.APICall
	// DeltaN holds calls present only in the natural trace.
	DeltaN []trace.APICall
	// Flips holds aligned pairs whose success status changed.
	Flips []Flip
	// Aligned is the number of aligned call pairs.
	Aligned int
}

// Empty reports whether the two traces aligned completely with no
// result flips.
func (d Diff) Empty() bool {
	return len(d.DeltaM) == 0 && len(d.DeltaN) == 0 && len(d.Flips) == 0
}

// maxLCSCells bounds the LCS table size (memory ∝ cells). Pipeline
// traces are hundreds of calls; a runaway sample looping on an API
// could produce tens of thousands, and a quadratic table would exhaust
// memory. Above the bound, Align falls back to the greedy anchor scan,
// which is linear in memory and empirically agrees with LCS on
// single-divergence traces (see the ablation).
const maxLCSCells = 16 << 20

// Align computes the difference sets between a mutated and a natural
// call trace.
func Align(mutated, natural []trace.APICall) Diff {
	return AlignKeyed(mutated, natural, KeysOf(natural))
}

// AlignKeyed is Align with the natural trace's keys computed by the
// caller (keysN must be KeysOf(natural)), so many mutated runs can be
// aligned against one natural run without rekeying it.
//
// The result is the LCS alignment over the full traces. The common
// prefix is matched without a table: the traceback takes a match
// whenever the keys are equal, so it walks that prefix diagonally, and
// the table cells it reads afterwards depend only on the keys after the
// prefix. A common suffix is not trimmed, because the traceback's
// tie-breaking would then pick a different alignment. The greedy
// fallback is decided on the untrimmed sizes.
func AlignKeyed(mutated, natural []trace.APICall, keysN []Key) Diff {
	m, n := len(mutated), len(natural)
	if m > 0 && n > 0 && m*n > maxLCSCells {
		return AlignGreedy(mutated, natural)
	}

	var d Diff
	p := 0
	for p < m && p < n && (sameContext(&mutated[p], &natural[p]) || KeyOf(mutated[p]) == keysN[p]) {
		d.Aligned++
		if mutated[p].Success != natural[p].Success {
			d.Flips = append(d.Flips, Flip{Mutated: mutated[p], Natural: natural[p]})
		}
		p++
	}
	mutated, natural, keysN = mutated[p:], natural[p:], keysN[p:]
	m, n = len(mutated), len(natural)
	if m == 0 || n == 0 {
		d.DeltaM = append(d.DeltaM, mutated...)
		d.DeltaN = append(d.DeltaN, natural...)
		return d
	}
	keysM := KeysOf(mutated)

	// LCS table over context keys: row i starts at i*w.
	w := n + 1
	lcs := make([]int32, (m+1)*w)
	for i := m - 1; i >= 0; i-- {
		for j := n - 1; j >= 0; j-- {
			at := i*w + j
			if keysM[i] == keysN[j] {
				lcs[at] = lcs[at+w+1] + 1
			} else if lcs[at+w] >= lcs[at+1] {
				lcs[at] = lcs[at+w]
			} else {
				lcs[at] = lcs[at+1]
			}
		}
	}

	i, j := 0, 0
	for i < m && j < n {
		switch at := i*w + j; {
		case keysM[i] == keysN[j]:
			d.Aligned++
			if mutated[i].Success != natural[j].Success {
				d.Flips = append(d.Flips, Flip{Mutated: mutated[i], Natural: natural[j]})
			}
			i++
			j++
		case lcs[at+w] >= lcs[at+1]:
			d.DeltaM = append(d.DeltaM, mutated[i])
			i++
		default:
			d.DeltaN = append(d.DeltaN, natural[j])
			j++
		}
	}
	d.DeltaM = append(d.DeltaM, mutated[i:]...)
	d.DeltaN = append(d.DeltaN, natural[j:]...)
	return d
}

// AlignTraces is Align over full traces.
func AlignTraces(mutated, natural *trace.Trace) Diff {
	return Align(mutated.Calls, natural.Calls)
}

// ContainsAPI reports whether any call in the set invokes one of the
// named APIs.
func ContainsAPI(calls []trace.APICall, apis ...string) bool {
	for _, c := range calls {
		for _, a := range apis {
			if c.API == a {
				return true
			}
		}
	}
	return false
}

// FilterAPI returns the calls matching any of the named APIs.
func FilterAPI(calls []trace.APICall, apis ...string) []trace.APICall {
	var out []trace.APICall
	for _, c := range calls {
		for _, a := range apis {
			if c.API == a {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
