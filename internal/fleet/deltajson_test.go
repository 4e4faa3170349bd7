package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"autovac/internal/vaccine"
)

// checkDeltaJSON holds DecodeDeltaJSON to encoding/json on one body:
// both fail with the same error or both return reflect.DeepEqual
// values, and whenever the one-pass reader alone accepts the body,
// json.Unmarshal succeeds with an equal value. It reports whether the
// one-pass reader accepted the body.
func checkDeltaJSON(t testing.TB, body []byte) bool {
	t.Helper()
	want := new(DeltaResponse)
	werr := json.Unmarshal(body, want)
	fast, ok := decodeCanonicalDelta(body)
	if ok && (werr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("one-pass reader accepted %.200q: got %+v, encoding/json %+v (err %v)", body, fast, want, werr)
	}
	got, err := DecodeDeltaJSON(body)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%.200q: DecodeDeltaJSON err %v, encoding/json err %v", body, err, werr)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("%.200q: DecodeDeltaJSON err %q, encoding/json err %q", body, err, werr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%.200q: DecodeDeltaJSON %+v, encoding/json %+v", body, got, want)
	}
	return ok
}

// encodeJSONDelta renders d exactly as the server does.
func encodeJSONDelta(t testing.TB, d *DeltaResponse) []byte {
	t.Helper()
	body, _, err := encodeDelta(d, false)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// corpusDeltaBodies encodes deltas of a registry holding the analysed
// corpus pack: the full pack, a one-vaccine tail and an empty delta.
func corpusDeltaBodies(t testing.TB) [][]byte {
	t.Helper()
	vs, err := corpusPackOnce()
	if err != nil {
		t.Fatal(err)
	}
	slices := 0
	for i := range vs {
		if vs[i].Slice != nil {
			slices++
		}
	}
	if slices == 0 {
		t.Fatal("corpus pack holds no slice-bearing vaccine")
	}
	reg := NewRegistry(0)
	reg.SetGenerator("deltajson-test")
	if _, _, err := reg.Publish(vs...); err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		encodeJSONDelta(t, reg.Delta(0)),
		encodeJSONDelta(t, reg.Delta(reg.Latest()-1)),
		encodeJSONDelta(t, reg.Delta(reg.Latest())),
	}
}

// deltaJSONCase is one edge case: a body and whether the one-pass
// reader must accept it.
type deltaJSONCase struct {
	name string
	body []byte
	fast bool
}

// deltaJSONCases is the edge-case table: encoder output the one-pass
// reader must take, and bodies it must leave to encoding/json.
func deltaJSONCases(t testing.TB) []deltaJSONCase {
	t.Helper()
	named := func(id, ident string) *DeltaResponse {
		v := staticVaccine(id, ident)
		return &DeltaResponse{Version: 1, ETag: "e", Vaccines: []vaccine.Vaccine{v}}
	}
	sliced := &DeltaResponse{Version: 1, ETag: "e", Vaccines: corpusSliceVaccines(t)[:1]}
	withData := func(data []byte) []byte {
		body := string(encodeJSONDelta(t, sliced))
		i := strings.Index(body, `"Data":[{`)
		j := strings.Index(body[i:], `"Data":"`)
		k := strings.Index(body[i+j+len(`"Data":"`):], `"`)
		if i < 0 || j < 0 || k < 0 {
			t.Fatal("slice program carries no data item")
		}
		value := "null"
		if data != nil {
			value = fmt.Sprintf("%q", data)
		}
		return []byte(body[:i+j] + `"Data":` + value + body[i+j+len(`"Data":"`)+k+1:])
	}
	small := string(encodeJSONDelta(t, named("v/mutex/0", "M")))
	edit := func(old, new string) []byte {
		if !strings.Contains(small, old) {
			t.Fatalf("%q not in %q", old, small)
		}
		return []byte(strings.Replace(small, old, new, 1))
	}
	return []deltaJSONCase{
		{"empty null vaccines", []byte(`{"Since":3,"Version":3,"Complete":false,"ETag":"e","Vaccines":null}` + "\n"), true},
		{"empty vaccine list", []byte(`{"Since":3,"Version":3,"Complete":false,"ETag":"e","Vaccines":[]}` + "\n"), true},
		{"reset and generator", encodeJSONDelta(t, &DeltaResponse{Version: 2, Complete: true, Reset: true, ETag: "e", Generator: "g"}), true},
		{"backslash", encodeJSONDelta(t, named(`v\mutex`, `Global\M`)), true},
		{"quote", encodeJSONDelta(t, named(`v"q"`, `say "hi"`)), true},
		{"html", encodeJSONDelta(t, named("v<&>", "<a&b>")), true},
		{"line separator", encodeJSONDelta(t, named("v\u2028", "a\u2029b")), true},
		{"control character", encodeJSONDelta(t, named("v\x01", "a\x1fb\tc\nd")), true},
		{"non-ASCII", encodeJSONDelta(t, named("v/é", "Ωmega-日本")), true},
		{"invalid UTF-8", encodeJSONDelta(t, named("v\xff", "a\xc3(b")), true},
		{"slice", encodeJSONDelta(t, sliced), true},
		{"empty data", withData([]byte{}), true},
		{"null data", withData(nil), true},
		{"whitespace", []byte(" {\t\"Since\" : 0 ,\r\n\"ETag\":\"e\" } \n"), true},
		{"lower-cased key", edit(`"Since":`, `"since":`), false},
		{"unknown key", edit(`"Since":0,`, `"Since":0,"Extra":1,`), false},
		{"repeated key", edit(`"Version":1,`, `"Version":1,"Version":2,`), false},
		{"null int", edit(`"CallerPC":0`, `"CallerPC":null`), false},
		{"fraction int", edit(`"CallerPC":0`, `"CallerPC":1.0`), false},
		{"exponent int", edit(`"CallerPC":0`, `"CallerPC":1e2`), false},
		{"uint8 overflow", withOpcode(t, sliced, "256"), false},
		{"negative zero uint", edit(`"Since":0`, `"Since":-0`), false},
		{"negative zero int", edit(`"CallerPC":0`, `"CallerPC":-0`), true},
		{"leading zero", edit(`"CallerPC":0`, `"CallerPC":01`), false},
		{"escaped key", edit(`"Since":`, `"\u0053ince":`), false},
		{"lone surrogate", edit(`"ETag":"`, `"ETag":"\ud800`), false},
		{"surrogate pair", edit(`"ETag":"`, `"ETag":"\ud83d\ude00`), false},
		{"single-quote escape", edit(`"ETag":"`, `"ETag":"\'`), false},
		{"trailing garbage", append(append([]byte{}, small...), "}"...), false},
		{"top-level null", []byte("null"), false},
		{"not JSON", []byte("AVD1\x00"), false},
		{"empty", nil, false},
	}
}

// corpusSliceVaccines returns the corpus pack's slice-bearing vaccines.
func corpusSliceVaccines(t testing.TB) []vaccine.Vaccine {
	t.Helper()
	vs, err := corpusPackOnce()
	if err != nil {
		t.Fatal(err)
	}
	var out []vaccine.Vaccine
	for i := range vs {
		if vs[i].Slice != nil && vs[i].Slice.Program != nil && len(vs[i].Slice.Program.Data) > 0 {
			out = append(out, vs[i])
		}
	}
	if len(out) == 0 {
		t.Fatal("corpus pack holds no slice with a data item")
	}
	return out
}

// withOpcode encodes d with its first instruction's opcode replaced.
func withOpcode(t testing.TB, d *DeltaResponse, op string) []byte {
	t.Helper()
	body := string(encodeJSONDelta(t, d))
	i := strings.Index(body, `"Instrs":[{"Op":`)
	if i < 0 {
		t.Fatal("slice program has no instructions")
	}
	i += len(`"Instrs":[{"Op":`)
	j := strings.IndexByte(body[i:], ',')
	return []byte(body[:i] + op + body[i+j:])
}

// jsonBytes are the bytes JSON's grammar turns on.
const jsonBytes = "{}[],:\"\\0123456789.-+eEnulltrue \n"

// mutate returns body with one seeded edit: a byte overwritten (with
// any byte or one of jsonBytes), inserted or deleted, or a span
// duplicated.
func mutate(rng *rand.Rand, body []byte) []byte {
	out := append([]byte{}, body...)
	if len(out) == 0 {
		return append(out, byte(rng.Intn(256)))
	}
	i := rng.Intn(len(out))
	switch rng.Intn(5) {
	case 0:
		out[i] = byte(rng.Intn(256))
	case 1:
		out[i] = jsonBytes[rng.Intn(len(jsonBytes))]
	case 2:
		out = append(out[:i], append([]byte{byte(rng.Intn(256))}, out[i:]...)...)
	case 3:
		out = append(out[:i], out[i+1:]...)
	default:
		j := i + rng.Intn(min(len(out)-i, 64))
		out = append(out[:j], append(append([]byte{}, out[i:j]...), out[j:]...)...)
	}
	return out
}

func TestDecodeDeltaJSONMatchesReference(t *testing.T) {
	bodies := corpusDeltaBodies(t)
	for i, body := range bodies {
		if !checkDeltaJSON(t, body) {
			t.Fatalf("corpus delta %d did not take the one-pass reader", i)
		}
	}
	for _, tc := range deltaJSONCases(t) {
		if got := checkDeltaJSON(t, tc.body); got != tc.fast {
			t.Errorf("%s: one-pass reader accepted = %v, want %v (%.200q)", tc.name, got, tc.fast, tc.body)
		}
		bodies = append(bodies, tc.body)
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for n := 0; n < 3000; n++ {
		body := bodies[rng.Intn(len(bodies))]
		for k := rng.Intn(3); k >= 0; k-- {
			body = mutate(rng, body)
		}
		if checkDeltaJSON(t, body) {
			accepted++
		}
	}
	t.Logf("one-pass reader accepted %d of 3000 mutated bodies", accepted)
}

// TestDeltaJSONFastPathCoversEveryField fills every exported field of
// the delta tree with a non-zero value, by reflection so a field added
// later is filled too, and requires the encoder's body for it to take
// the one-pass reader: it fails on the day a field is added to the wire
// format without teaching the reader.
func TestDeltaJSONFastPathCoversEveryField(t *testing.T) {
	var d DeltaResponse
	n := 0
	fillNonZero(t, reflect.ValueOf(&d).Elem(), "DeltaResponse", &n)
	if !checkDeltaJSON(t, encodeJSONDelta(t, &d)) {
		t.Fatalf("the encoder's body for a fully populated delta did not take the one-pass reader:\n%s",
			encodeJSONDelta(t, &d))
	}
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value distinct from its siblings'; n counts the values handed out.
func fillNonZero(t *testing.T, v reflect.Value, path string, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		if v.NumField() > 64 {
			t.Fatalf("%s: %d fields overflow the reader's seen-mask", path, v.NumField())
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillNonZero(t, v.Field(i), path+"."+f.Name, n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), path, n)
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(path))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("%s#%d", path, *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%200 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("%s: no non-zero filler for kind %s", path, v.Kind())
	}
}

// FuzzDeltaJSONMatchesReference holds DecodeDeltaJSON to encoding/json
// on arbitrary bodies, seeded with corpus deltas and the edge-case
// table: whenever the one-pass reader accepts a body, encoding/json
// must decode it to an equal value, and DecodeDeltaJSON's result or
// error is always encoding/json's.
func FuzzDeltaJSONMatchesReference(f *testing.F) {
	for _, body := range corpusDeltaBodies(f) {
		f.Add(body)
	}
	for _, tc := range deltaJSONCases(f) {
		f.Add(tc.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDeltaJSON(t, body)
	})
}
