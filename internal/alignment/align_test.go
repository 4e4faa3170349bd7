package alignment

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"autovac/internal/trace"
)

func call(api string, pc int, params ...string) trace.APICall {
	c := trace.APICall{API: api, CallerPC: pc}
	for _, p := range params {
		c.Args = append(c.Args, trace.ArgValue{Str: p, Static: true})
	}
	return c
}

func TestKeyOf(t *testing.T) {
	a := call("OpenMutexA", 5, "_AVIRA_2109")
	b := call("OpenMutexA", 5, "_AVIRA_2109")
	if KeyOf(a) != KeyOf(b) {
		t.Error("identical contexts produced different keys")
	}
	// Different caller-PC separates keys.
	c := call("OpenMutexA", 9, "_AVIRA_2109")
	if KeyOf(a) == KeyOf(c) {
		t.Error("different caller-PC aligned")
	}
	// Dynamic args are ignored.
	d := a
	d.Args = append([]trace.ArgValue{{Raw: 0x1234, Static: false}}, d.Args...)
	e := a
	e.Args = append([]trace.ArgValue{{Raw: 0x9999, Static: false}}, e.Args...)
	if KeyOf(d) != KeyOf(e) {
		t.Error("dynamic args leaked into the key")
	}
	// Static raw values participate.
	f := trace.APICall{API: "X", Args: []trace.ArgValue{{Raw: 1, Static: true}}}
	g := trace.APICall{API: "X", Args: []trace.ArgValue{{Raw: 2, Static: true}}}
	if KeyOf(f) == KeyOf(g) {
		t.Error("static raw args not compared")
	}
}

func TestAlignIdenticalTraces(t *testing.T) {
	calls := []trace.APICall{
		call("OpenMutexA", 1, "m"),
		call("CreateMutexA", 4, "m"),
		call("connect", 9, "cc:443"),
	}
	d := Align(calls, calls)
	if !d.Empty() || d.Aligned != 3 {
		t.Errorf("self-alignment: %+v", d)
	}
}

func TestAlignPrefixDivergence(t *testing.T) {
	natural := []trace.APICall{
		call("OpenMutexA", 1, "m"),
		call("CreateMutexA", 4, "m"),
		call("RegOpenKeyExA", 7, `HKLM\Run`),
		call("connect", 9, "cc:443"),
	}
	mutated := []trace.APICall{
		call("OpenMutexA", 1, "m"),
		call("ExitProcess", 20),
	}
	d := Align(mutated, natural)
	if d.Aligned != 1 {
		t.Errorf("aligned = %d, want 1", d.Aligned)
	}
	if !ContainsAPI(d.DeltaM, "ExitProcess") {
		t.Error("ExitProcess not in DeltaM")
	}
	if !ContainsAPI(d.DeltaN, "CreateMutexA", "connect") {
		t.Error("lost calls not in DeltaN")
	}
	if len(d.DeltaN) != 3 {
		t.Errorf("DeltaN = %d calls, want 3", len(d.DeltaN))
	}
}

func TestAlignMidTraceGap(t *testing.T) {
	natural := []trace.APICall{
		call("A", 1), call("B", 2), call("C", 3), call("D", 4),
	}
	mutated := []trace.APICall{
		call("A", 1), call("D", 4),
	}
	d := Align(mutated, natural)
	if d.Aligned != 2 {
		t.Errorf("aligned = %d, want 2 (A and D)", d.Aligned)
	}
	if len(d.DeltaN) != 2 || d.DeltaN[0].API != "B" || d.DeltaN[1].API != "C" {
		t.Errorf("DeltaN = %+v", d.DeltaN)
	}
	if len(d.DeltaM) != 0 {
		t.Errorf("DeltaM = %+v", d.DeltaM)
	}
}

func TestAlignEmptyTraces(t *testing.T) {
	d := Align(nil, nil)
	if !d.Empty() {
		t.Error("empty traces not aligned")
	}
	d = Align(nil, []trace.APICall{call("A", 1)})
	if len(d.DeltaN) != 1 || len(d.DeltaM) != 0 {
		t.Errorf("one-sided: %+v", d)
	}
}

func TestFilterAPI(t *testing.T) {
	calls := []trace.APICall{call("A", 1), call("B", 2), call("A", 3)}
	got := FilterAPI(calls, "A")
	if len(got) != 2 {
		t.Errorf("FilterAPI = %d", len(got))
	}
	if FilterAPI(calls, "Z") != nil {
		t.Error("FilterAPI(Z) non-nil")
	}
	if !ContainsAPI(calls, "Z", "B") {
		t.Error("ContainsAPI multi-name failed")
	}
}

// Properties: alignment of a trace with itself is empty; Δ sizes are
// consistent with the aligned count.
func TestAlignProperties(t *testing.T) {
	apis := []string{"A", "B", "C", "D", "E"}
	mk := func(idx []uint8) []trace.APICall {
		out := make([]trace.APICall, len(idx))
		for i, x := range idx {
			out[i] = call(apis[int(x)%len(apis)], int(x)%7)
		}
		return out
	}
	selfEmpty := func(idx []uint8) bool {
		c := mk(idx)
		d := Align(c, c)
		return d.Empty() && d.Aligned == len(c)
	}
	sizes := func(a, b []uint8) bool {
		ca, cb := mk(a), mk(b)
		d := Align(ca, cb)
		return len(d.DeltaM)+d.Aligned == len(ca) &&
			len(d.DeltaN)+d.Aligned == len(cb)
	}
	symmetric := func(a, b []uint8) bool {
		ca, cb := mk(a), mk(b)
		d1 := Align(ca, cb)
		d2 := Align(cb, ca)
		return len(d1.DeltaM) == len(d2.DeltaN) && len(d1.DeltaN) == len(d2.DeltaM) &&
			d1.Aligned == d2.Aligned
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(selfEmpty, cfg); err != nil {
		t.Errorf("self-empty: %v", err)
	}
	if err := quick.Check(sizes, cfg); err != nil {
		t.Errorf("sizes: %v", err)
	}
	if err := quick.Check(symmetric, cfg); err != nil {
		t.Errorf("symmetric: %v", err)
	}
}

// SameContexts must never answer true where Align would find a
// difference: it only lets a caller skip Align for traces Align would
// call identical.
func TestSameContextsImpliesEmptyAlign(t *testing.T) {
	mk := func(idx []uint8) []trace.APICall {
		out := make([]trace.APICall, len(idx))
		for i, x := range idx {
			out[i] = trace.APICall{
				API: []string{"A", "B", "C"}[x%3], CallerPC: int(x % 5), Success: x%2 == 0,
				Args: []trace.ArgValue{
					{Raw: uint32(x), Static: true},
					{Str: []string{"m", "n"}[x%2], Raw: 7, Static: true},
					{Raw: 0x100, Static: false},
				},
			}
		}
		return out
	}
	// Fields outside the alignment context: sequence, return value,
	// last error, identifier, dynamic argument values, taint, and the
	// raw value behind a static string.
	noise := func(calls []trace.APICall) []trace.APICall {
		out := make([]trace.APICall, len(calls))
		for i, c := range calls {
			c.Seq, c.Ret, c.LastError, c.Identifier = i+100, 0xFFFF, 5, "other"
			c.Args = append([]trace.ArgValue(nil), c.Args...)
			c.Args[1].Raw = 99
			c.Args[2].Raw, c.Args[2].Tainted = 0x200, true
			out[i] = c
		}
		return out
	}
	equal := func(idx []uint8) bool {
		a := mk(idx)
		b := noise(a)
		d := Align(a, b)
		return SameContexts(a, b) && d.Empty() && d.Aligned == len(a)
	}
	implies := func(x, y []uint8) bool {
		a, b := mk(x), mk(y)
		if !SameContexts(a, b) {
			return true
		}
		d := Align(a, b)
		return d.Empty() && d.Aligned == len(a)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(equal, cfg); err != nil {
		t.Errorf("noise outside the context: %v", err)
	}
	if err := quick.Check(implies, cfg); err != nil {
		t.Errorf("SameContexts true with a non-empty diff: %v", err)
	}
	// Each context field breaks sameness.
	base := mk([]uint8{1, 2})
	for name, edit := range map[string]func(*trace.APICall){
		"api":        func(c *trace.APICall) { c.API = "Z" },
		"caller":     func(c *trace.APICall) { c.CallerPC = 42 },
		"success":    func(c *trace.APICall) { c.Success = !c.Success },
		"static raw": func(c *trace.APICall) { c.Args[0].Raw = 42 },
		"static str": func(c *trace.APICall) { c.Args[1].Str = "q" },
		"static":     func(c *trace.APICall) { c.Args[2].Static = true },
		"arity":      func(c *trace.APICall) { c.Args = c.Args[:2] },
	} {
		b := noise(base)
		edit(&b[1])
		if SameContexts(base, b) {
			t.Errorf("%s change left the contexts the same", name)
		}
	}
	if SameContexts(base, base[:1]) {
		t.Error("different lengths compared the same")
	}
}

// refKeyOf and refAlign are KeyOf and Align as they were before the
// keyed, prefix-trimmed LCS: Sprintf keys and a row-per-call table over
// both whole traces. The fast path must match them exactly.

// refKeyOf derives the alignment key of a call record.
func refKeyOf(c trace.APICall) Key {
	var parts []string
	for i, a := range c.Args {
		if !a.Static {
			continue
		}
		if a.Str != "" {
			parts = append(parts, fmt.Sprintf("%d=%s", i, a.Str))
		} else {
			parts = append(parts, fmt.Sprintf("%d=%#x", i, a.Raw))
		}
	}
	return Key{API: c.API, CallerPC: c.CallerPC, Params: strings.Join(parts, "|")}
}

// refAlign computes the difference sets between a mutated and a natural
// call trace.
func refAlign(mutated, natural []trace.APICall) Diff {
	m, n := len(mutated), len(natural)
	if m > 0 && n > 0 && m*n > maxLCSCells {
		return AlignGreedy(mutated, natural)
	}
	keysM := make([]Key, m)
	for i, c := range mutated {
		keysM[i] = refKeyOf(c)
	}
	keysN := make([]Key, n)
	for i, c := range natural {
		keysN[i] = refKeyOf(c)
	}

	// LCS table over context keys.
	lcs := make([][]int32, m+1)
	for i := range lcs {
		lcs[i] = make([]int32, n+1)
	}
	for i := m - 1; i >= 0; i-- {
		for j := n - 1; j >= 0; j-- {
			if keysM[i] == keysN[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}

	var d Diff
	i, j := 0, 0
	for i < m && j < n {
		switch {
		case keysM[i] == keysN[j]:
			d.Aligned++
			if mutated[i].Success != natural[j].Success {
				d.Flips = append(d.Flips, Flip{Mutated: mutated[i], Natural: natural[j]})
			}
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
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

// checkAgainstReference fails unless KeyOf agrees with refKeyOf on
// every call and Align and AlignKeyed return refAlign's Diff, in both
// directions.
func checkAgainstReference(t *testing.T, mutated, natural []trace.APICall) {
	t.Helper()
	for _, c := range append(append([]trace.APICall(nil), mutated...), natural...) {
		if got, want := KeyOf(c), refKeyOf(c); got != want {
			t.Fatalf("KeyOf(%+v) = %+v, want %+v", c, got, want)
		}
	}
	for _, p := range [][2][]trace.APICall{{mutated, natural}, {natural, mutated}} {
		want := refAlign(p[0], p[1])
		if got := Align(p[0], p[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("Align(\n%+v,\n%+v)\n= %+v\nwant %+v", p[0], p[1], got, want)
		}
		if got := AlignKeyed(p[0], p[1], KeysOf(p[1])); !reflect.DeepEqual(got, want) {
			t.Fatalf("AlignKeyed(\n%+v,\n%+v)\n= %+v\nwant %+v", p[0], p[1], got, want)
		}
	}
}

// genCall draws a call from a small alphabet, so keys repeat. Static
// arguments carry a string or a raw 0, 1 or 0xFFFFFFFF; dynamic ones
// carry noise that no key reads.
func genCall(r *rand.Rand) trace.APICall {
	c := trace.APICall{
		API:      []string{"OpenMutexA", "CreateFileA", "connect"}[r.Intn(3)],
		CallerPC: r.Intn(3),
		Success:  r.Intn(2) == 0,
		Ret:      r.Uint32(),
	}
	for k := r.Intn(3); k > 0; k-- {
		a := trace.ArgValue{Static: r.Intn(3) > 0, Raw: []uint32{0, 1, 0xFFFFFFFF}[r.Intn(3)]}
		if r.Intn(3) == 0 {
			a.Str = []string{"m", `C:\x.sys`, "a|b=0x1"}[r.Intn(3)]
		}
		if !a.Static {
			a.Raw = r.Uint32()
		}
		c.Args = append(c.Args, a)
	}
	return c
}

func genCalls(r *rand.Rand, n int) []trace.APICall {
	var out []trace.APICall
	for ; n > 0; n-- {
		out = append(out, genCall(r))
	}
	return out
}

// echo copies calls as a second run would record them: same contexts,
// some results flipped, some with a trailing dynamic argument or new
// noise behind a static string (fields differ, keys do not), and now
// and then a different call.
func echo(r *rand.Rand, calls []trace.APICall) []trace.APICall {
	out := make([]trace.APICall, len(calls))
	for i, c := range calls {
		c.Args = append([]trace.ArgValue(nil), c.Args...)
		if r.Intn(3) == 0 {
			c.Success = !c.Success
		}
		switch r.Intn(8) {
		case 0:
			c.Args = append(c.Args, trace.ArgValue{Raw: r.Uint32()})
		case 1:
			for j := range c.Args {
				c.Args[j].Raw = r.Uint32()
			}
		case 2:
			c = genCall(r)
		}
		out[i] = c
	}
	return out
}

// genPair builds a natural and a mutated trace that share a prefix and
// a suffix around independent middles; either side may be empty.
func genPair(r *rand.Rand) (mutated, natural []trace.APICall) {
	prefix, suffix := genCalls(r, r.Intn(7)), genCalls(r, r.Intn(4))
	natural = append(append(append(natural, prefix...), genCalls(r, r.Intn(8))...), suffix...)
	mutated = append(append(echo(r, prefix), genCalls(r, r.Intn(8))...), echo(r, suffix)...)
	switch r.Intn(10) {
	case 0:
		mutated = nil
	case 1:
		natural = nil
	}
	return mutated, natural
}

// TestAlignMatchesReference holds the keyed, prefix-trimmed LCS to the
// reference on generated trace pairs.
func TestAlignMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		m, n := genPair(r)
		checkAgainstReference(t, m, n)
	}
}

// pairFromBytes decodes a fuzz input two bytes per call: the first
// byte says which side gets the call (both, both with the mutated
// result flipped, mutated only, natural only), its argument shape, and
// whether the mutated copy gains a dynamic argument; the second picks
// the API, caller PC and result.
func pairFromBytes(data []byte) (mutated, natural []trace.APICall) {
	for ; len(data) >= 2; data = data[2:] {
		op, b := data[0], data[1]
		c := trace.APICall{API: string(rune('A' + b%3)), CallerPC: int(b/3) % 3, Success: b&0x80 != 0}
		switch op >> 2 & 3 {
		case 1:
			c.Args = []trace.ArgValue{{Str: "m", Static: true}}
		case 2:
			c.Args = []trace.ArgValue{{Raw: 0xFFFFFFFF, Static: true}}
		case 3:
			c.Args = []trace.ArgValue{{Raw: 0, Static: true}, {Raw: uint32(op), Static: false}}
		}
		m := c
		if op&0x40 != 0 {
			m.Args = append(append([]trace.ArgValue(nil), c.Args...), trace.ArgValue{Raw: uint32(b)})
		}
		switch op & 3 {
		case 0:
			mutated, natural = append(mutated, m), append(natural, c)
		case 1:
			m.Success = !m.Success
			mutated, natural = append(mutated, m), append(natural, c)
		case 2:
			mutated = append(mutated, m)
		default:
			natural = append(natural, c)
		}
	}
	return mutated, natural
}

// FuzzAlignMatchesReference holds the keyed, prefix-trimmed LCS to the
// reference on fuzzed trace pairs.
func FuzzAlignMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 0, 3, 2, 4, 3, 5, 0, 1})
	f.Add([]byte{4, 0, 69, 130, 8, 3, 14, 7, 0, 4, 1, 4, 2, 4, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n := pairFromBytes(data)
		checkAgainstReference(t, m, n)
	})
}
