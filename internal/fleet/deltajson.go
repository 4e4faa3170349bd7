package fleet

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
	"unicode/utf8"
	"unsafe"

	"autovac/internal/determinism"
	"autovac/internal/impact"
	"autovac/internal/isa"
	"autovac/internal/vaccine"
)

// DecodeDeltaJSON decodes a JSON delta body, the counterpart of
// DecodeDeltaBinary. The canonical form — the JSON encodeDelta writes —
// is decoded in one pass without reflection; any other body goes to
// json.Unmarshal on a fresh zero DeltaResponse, so every result and
// every error is encoding/json's.
//
// The one-pass reader accepts only input with a single meaning: each
// key spelled exactly as its Go field and at most once per object,
// integers in their field's range, strings of valid UTF-8 with the
// escapes the encoder writes and no surrogate escapes, and nothing but
// whitespace after the object. encoding/json decodes every such body to
// a reflect.DeepEqual value. A case-folded, unknown or repeated key,
// null for a scalar, a fraction or exponent in an integer, or trailing
// bytes send the body to encoding/json, which folds case, skips unknown
// keys and merges repeated ones, or fails. So a field added to the wire
// format later costs speed until the reader learns it, and is never
// silently dropped.
func DecodeDeltaJSON(body []byte) (*DeltaResponse, error) {
	if d, ok := decodeCanonicalDelta(body); ok {
		return d, nil
	}
	d := new(DeltaResponse)
	if err := json.Unmarshal(body, d); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeCanonicalDelta is DecodeDeltaJSON's one-pass reader; ok is
// false when body is not in the canonical form.
func decodeCanonicalDelta(body []byte) (*DeltaResponse, bool) {
	r := jsonReader{b: body}
	d := new(DeltaResponse)
	object(&r, deltaFields, d)
	r.ws()
	if r.bad || r.i != len(r.b) {
		return nil, false
	}
	return d, true
}

// field is one JSON key of a T and the reader of its value.
type field[T any] struct {
	key  string
	read func(*jsonReader, *T)
}

// The fields of each decoded type, in declaration order: the order the
// encoder writes them. The readers capture nothing, so they are plain
// functions and decoding allocates no closures.
var (
	deltaFields = []field[DeltaResponse]{
		{"Since", func(r *jsonReader, d *DeltaResponse) { setInt(r, &d.Since) }},
		{"Version", func(r *jsonReader, d *DeltaResponse) { setInt(r, &d.Version) }},
		{"Complete", func(r *jsonReader, d *DeltaResponse) { d.Complete = r.boolean() }},
		{"Reset", func(r *jsonReader, d *DeltaResponse) { d.Reset = r.boolean() }},
		{"ETag", func(r *jsonReader, d *DeltaResponse) { d.ETag = r.str() }},
		{"Generator", func(r *jsonReader, d *DeltaResponse) { d.Generator = r.str() }},
		{"Vaccines", func(r *jsonReader, d *DeltaResponse) {
			d.Vaccines = list(r, func(r *jsonReader, v *vaccine.Vaccine) { object(r, vaccineFields, v) })
		}},
	}
	vaccineFields = []field[vaccine.Vaccine]{
		{"ID", func(r *jsonReader, v *vaccine.Vaccine) { v.ID = r.str() }},
		{"Sample", func(r *jsonReader, v *vaccine.Vaccine) { v.Sample = r.str() }},
		{"Family", func(r *jsonReader, v *vaccine.Vaccine) { v.Family = r.str() }},
		{"Category", func(r *jsonReader, v *vaccine.Vaccine) { v.Category = r.str() }},
		{"Resource", func(r *jsonReader, v *vaccine.Vaccine) { setInt(r, &v.Resource) }},
		{"Identifier", func(r *jsonReader, v *vaccine.Vaccine) { v.Identifier = r.str() }},
		{"Pattern", func(r *jsonReader, v *vaccine.Vaccine) { v.Pattern = r.str() }},
		{"Class", func(r *jsonReader, v *vaccine.Vaccine) { setInt(r, &v.Class) }},
		{"Op", func(r *jsonReader, v *vaccine.Vaccine) { v.Op = r.str() }},
		{"API", func(r *jsonReader, v *vaccine.Vaccine) { v.API = r.str() }},
		{"CallerPC", func(r *jsonReader, v *vaccine.Vaccine) { setInt(r, &v.CallerPC) }},
		{"Effect", func(r *jsonReader, v *vaccine.Vaccine) { setInt(r, &v.Effect) }},
		{"Effects", func(r *jsonReader, v *vaccine.Vaccine) { v.Effects = list(r, setInt[impact.Effect]) }},
		{"Polarity", func(r *jsonReader, v *vaccine.Vaccine) { setInt(r, &v.Polarity) }},
		{"Delivery", func(r *jsonReader, v *vaccine.Vaccine) { setInt(r, &v.Delivery) }},
		{"Slice", func(r *jsonReader, v *vaccine.Vaccine) { v.Slice = ptr(r, sliceFields) }},
		{"BDR", func(r *jsonReader, v *vaccine.Vaccine) { v.BDR = r.float() }},
	}
	sliceFields = []field[determinism.Slice]{
		{"Program", func(r *jsonReader, s *determinism.Slice) { s.Program = ptr(r, programFields) }},
		{"ResultAddr", func(r *jsonReader, s *determinism.Slice) { setInt(r, &s.ResultAddr) }},
		{"API", func(r *jsonReader, s *determinism.Slice) { s.API = r.str() }},
		{"SourceSteps", func(r *jsonReader, s *determinism.Slice) { setInt(r, &s.SourceSteps) }},
		{"PCs", func(r *jsonReader, s *determinism.Slice) { s.PCs = list(r, setInt[int]) }},
		{"CriterionPC", func(r *jsonReader, s *determinism.Slice) { setInt(r, &s.CriterionPC) }},
	}
	programFields = []field[isa.Program]{
		{"Name", func(r *jsonReader, p *isa.Program) { p.Name = r.str() }},
		{"Instrs", func(r *jsonReader, p *isa.Program) {
			p.Instrs = list(r, func(r *jsonReader, in *isa.Instr) { object(r, instrFields, in) })
		}},
		{"Data", func(r *jsonReader, p *isa.Program) {
			p.Data = list(r, func(r *jsonReader, it *isa.DataItem) { object(r, dataFields, it) })
		}},
	}
	instrFields = []field[isa.Instr]{
		{"Op", func(r *jsonReader, in *isa.Instr) { setInt(r, &in.Op) }},
		{"Dst", func(r *jsonReader, in *isa.Instr) { object(r, operandFields, &in.Dst) }},
		{"Src", func(r *jsonReader, in *isa.Instr) { object(r, operandFields, &in.Src) }},
		{"Target", func(r *jsonReader, in *isa.Instr) { in.Target = r.str() }},
		{"API", func(r *jsonReader, in *isa.Instr) { in.API = r.str() }},
		{"NArgs", func(r *jsonReader, in *isa.Instr) { setInt(r, &in.NArgs) }},
		{"Label", func(r *jsonReader, in *isa.Instr) { in.Label = r.str() }},
		{"Comment", func(r *jsonReader, in *isa.Instr) { in.Comment = r.str() }},
	}
	operandFields = []field[isa.Operand]{
		{"Kind", func(r *jsonReader, op *isa.Operand) { setInt(r, &op.Kind) }},
		{"Reg", func(r *jsonReader, op *isa.Operand) { setInt(r, &op.Reg) }},
		{"Imm", func(r *jsonReader, op *isa.Operand) { setInt(r, &op.Imm) }},
		{"Sym", func(r *jsonReader, op *isa.Operand) { op.Sym = r.str() }},
		{"HasBase", func(r *jsonReader, op *isa.Operand) { op.HasBase = r.boolean() }},
	}
	dataFields = []field[isa.DataItem]{
		{"Name", func(r *jsonReader, it *isa.DataItem) { it.Name = r.str() }},
		{"Data", func(r *jsonReader, it *isa.DataItem) { it.Data = r.base64() }},
		{"ReadOnly", func(r *jsonReader, it *isa.DataItem) { it.ReadOnly = r.boolean() }},
	}
)

// jsonReader reads the canonical form from a byte slice. The first
// refusal sets bad and moves i to the end, so every later read refuses
// too and every loop ends.
type jsonReader struct {
	b   []byte
	i   int
	bad bool
	buf []byte // reused by unescape
}

func (r *jsonReader) fail() {
	r.bad, r.i = true, len(r.b)
}

// at reports whether the next byte is c.
func (r *jsonReader) at(c byte) bool { return r.i < len(r.b) && r.b[r.i] == c }

// ws skips JSON whitespace.
func (r *jsonReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// expect consumes c after whitespace.
func (r *jsonReader) expect(c byte) {
	r.ws()
	if !r.at(c) {
		r.fail()
		return
	}
	r.i++
}

// literal consumes s after whitespace, if it is next.
func (r *jsonReader) literal(s string) bool {
	r.ws()
	if len(r.b)-r.i < len(s) || string(r.b[r.i:r.i+len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

func (r *jsonReader) null() bool { return r.literal("null") }

func (r *jsonReader) boolean() bool {
	if r.literal("true") {
		return true
	}
	if !r.literal("false") {
		r.fail()
	}
	return false
}

// object reads one JSON object into v, each member's value by its
// key's field. A key must name a field exactly, without escapes, and at
// most once; the seen-mask holds up to 64 fields.
func object[T any](r *jsonReader, fields []field[T], v *T) {
	r.expect('{')
	var seen uint64
	for n, next := 0, 0; !r.bad; n++ {
		r.ws()
		if r.at('}') {
			r.i++
			return
		}
		if n > 0 {
			r.expect(',')
		}
		// The encoder writes fields in order: try the one after the
		// previous key first.
		k := -1
		if next < len(fields) && r.key(fields[next].key) {
			k = next
		} else if raw, esc := r.rawString(); !esc {
			for j := range fields {
				if fields[j].key == string(raw) {
					k = j
					break
				}
			}
		}
		if k < 0 || seen&(1<<k) != 0 {
			r.fail()
			return
		}
		seen |= 1 << k
		next = k + 1
		r.expect(':')
		fields[k].read(r, v)
	}
}

// key consumes the quoted key name, if it is next.
func (r *jsonReader) key(name string) bool {
	r.ws()
	end := r.i + 1 + len(name)
	if end >= len(r.b) || r.b[r.i] != '"' || r.b[end] != '"' || string(r.b[r.i+1:end]) != name {
		return false
	}
	r.i = end + 1
	return true
}

// ptr reads null as nil and an object into a new T.
func ptr[T any](r *jsonReader, fields []field[T]) *T {
	if r.null() {
		return nil
	}
	v := new(T)
	object(r, fields, v)
	return v
}

// list reads an array of T, each element by elem. null gives a nil
// slice and [] an empty non-nil one, as in encoding/json.
func list[T any](r *jsonReader, elem func(*jsonReader, *T)) []T {
	if r.null() {
		return nil
	}
	r.expect('[')
	out := []T{}
	r.ws()
	if r.at(']') {
		r.i++
		return out
	}
	for !r.bad {
		var zero T
		out = append(out, zero)
		elem(r, &out[len(out)-1])
		r.ws()
		if !r.at(',') {
			r.expect(']')
			break
		}
		r.i++
	}
	return out
}

// integer covers the integer types the decoded fields are defined on.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// setInt reads an integer into *p, refusing one *p's type cannot hold
// (encoding/json's range check), so a field's range follows its type.
func setInt[T integer](r *jsonReader, p *T) {
	*p = T(r.integer(8*int(unsafe.Sizeof(*p)), ^T(0) < 0))
}

// integer reads -?(0|[1-9][0-9]*) and returns it as the two's
// complement bits of a bits-wide integer, signed or not.
func (r *jsonReader) integer(bits int, signed bool) uint64 {
	r.ws()
	neg := r.at('-')
	if neg {
		r.i++
	}
	start := r.i
	var n uint64
	for ; r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9'; r.i++ {
		d := uint64(r.b[r.i] - '0')
		if n > (^uint64(0)-d)/10 {
			r.fail()
			return 0
		}
		n = n*10 + d
	}
	limit := ^uint64(0) >> (64 - bits)
	if signed {
		limit >>= 1
	}
	switch {
	case r.i == start, r.i-start > 1 && r.b[start] == '0':
		r.fail() // no digits, or a leading zero
	case neg && (!signed || n > limit+1), !neg && n > limit:
		r.fail() // out of range, or a sign on an unsigned field ("-0" too)
	case neg:
		return -n
	}
	return n
}

// float reads a JSON number and parses it as encoding/json does.
func (r *jsonReader) float() float64 {
	r.ws()
	start := r.i
	if r.at('-') {
		r.i++
	}
	digits := r.digits()
	if digits == 0 || digits > 1 && r.b[r.i-digits] == '0' {
		r.fail()
		return 0
	}
	if r.at('.') {
		r.i++
		if r.digits() == 0 {
			r.fail()
			return 0
		}
	}
	if r.at('e') || r.at('E') {
		r.i++
		if r.at('+') || r.at('-') {
			r.i++
		}
		if r.digits() == 0 {
			r.fail()
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.i]), 64)
	if err != nil {
		r.fail()
	}
	return f
}

// digits skips a run of decimal digits and returns its length.
func (r *jsonReader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// rawString reads a string's raw bytes between its quotes, refusing
// control characters and invalid UTF-8; esc reports a backslash, whose
// escape is checked by unescape.
func (r *jsonReader) rawString() (raw []byte, esc bool) {
	r.ws()
	if !r.at('"') {
		r.fail()
		return nil, false
	}
	start := r.i + 1
	for i := start; i < len(r.b); {
		switch c := r.b[i]; {
		case c == '"':
			r.i = i + 1
			return r.b[start:i], esc
		case c == '\\':
			esc = true
			i += 2
		case c < ' ':
			r.fail()
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			rn, n := utf8.DecodeRune(r.b[i:])
			if rn == utf8.RuneError && n == 1 {
				r.fail()
				return nil, false
			}
			i += n
		}
	}
	r.fail()
	return nil, false
}

func (r *jsonReader) str() string {
	raw, esc := r.rawString()
	if !esc {
		return string(raw)
	}
	var ok bool
	if r.buf, ok = unescape(r.buf[:0], raw); !ok {
		r.fail()
		return ""
	}
	return string(r.buf)
}

// unescape appends raw with its escapes decoded as encoding/json
// decodes them, refusing any other escape and every surrogate.
func unescape(out, raw []byte) ([]byte, bool) {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		if i++; i == len(raw) {
			return out, false
		}
		switch c = raw[i]; c {
		case '"', '\\', '/':
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			if len(raw)-i < 5 {
				return out, false
			}
			rn, err := strconv.ParseUint(string(raw[i+1:i+5]), 16, 32)
			if err != nil || 0xD800 <= rn && rn < 0xE000 {
				return out, false
			}
			out = utf8.AppendRune(out, rune(rn))
			i += 4
			continue
		default:
			return out, false
		}
		out = append(out, c)
	}
	return out, true
}

// base64 reads a []byte field: null gives nil, and a string holds
// standard base64 decoded as encoding/json does ("" gives an empty
// non-nil slice). The encoder writes base64 unescaped.
func (r *jsonReader) base64() []byte {
	if r.null() {
		return nil
	}
	raw, esc := r.rawString()
	if esc {
		r.fail()
	}
	if r.bad {
		return nil
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(out, raw)
	if err != nil {
		r.fail()
	}
	return out[:n]
}
