package alignment

import (
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
