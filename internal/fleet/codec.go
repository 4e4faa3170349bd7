package fleet

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"autovac/internal/vaccine"
)

// Binary delta codec — the wire format negotiated on GET /v1/packs.
//
// JSON stays the default and is byte-identical to the pre-codec
// protocol; a client that sends `Accept: application/x-autovac-delta`
// gets the same DeltaResponse as a compact binary frame instead:
//
//	bytes 0..3  magic "AVD1"
//	byte  4     flags: bit0 payload is DEFLATE-compressed
//	                   bit1 Complete
//	                   bit2 Reset
//	payload     (raw or DEFLATE, per bit0)
//	  uvarint   Since
//	  uvarint   Version
//	  string    ETag        (uvarint length + bytes)
//	  string    Generator
//	  uvarint   len(Versions), then zigzag-varint deltas between
//	            consecutive per-vaccine publish versions (ascending in
//	            practice, so each delta is one or two bytes)
//	  vaccines  vaccine.AppendBinary section (string table + records)
//
// Integers are varints, strings are interned once per frame by the
// vaccine layer, and payloads past DeltaCompressMin are DEFLATE-
// compressed inside the frame — so Content-Type alone fully describes
// the body and intermediaries cannot half-apply the encoding.
//
// The binary frame additionally carries the per-vaccine publish
// versions (DeltaResponse.Versions, never serialised in JSON): a relay
// needs them to mirror its upstream's version line exactly, which is
// what keeps `?since=` cursors meaningful across tiers.

// Content types of the two delta encodings. A client opts into the
// binary codec with `Accept: application/x-autovac-delta`; the server
// answers with the matching Content-Type, and everything else keeps
// receiving application/json byte-identical to the pre-codec protocol.
const (
	ContentTypeJSON  = "application/json"
	ContentTypeDelta = "application/x-autovac-delta"
)

// deltaMagic heads every binary delta frame.
const deltaMagic = "AVD1"

// Frame flag bits.
const (
	deltaFlagCompressed = 1 << iota
	deltaFlagComplete
	deltaFlagReset

	deltaKnownFlags = deltaFlagReset<<1 - 1
)

// DeltaCompressMin is the payload size past which EncodeDeltaBinary
// DEFLATE-compresses the frame. Below it the compressor's overhead
// outweighs its savings (a one-vaccine delta is already mostly-unique
// bytes); above it packs compress well because identifiers, IDs, and
// the hex digest share structure.
const DeltaCompressMin = 512

// maxDeltaPayload bounds the decompressed size DecodeDeltaBinary will
// inflate, so a hostile tiny frame cannot balloon into gigabytes. Far
// above any real pack (the WAL applies the same 16 MiB judgement
// per record).
const maxDeltaPayload = 1 << 28

// ErrDeltaMalformed is wrapped by every binary delta decoding failure.
var ErrDeltaMalformed = errors.New("fleet: malformed binary delta")

// DEFLATE state is pooled across frames: a new BestSpeed writer
// allocates about 1.2 MB of tables and a new reader about 40 KB. A
// Reset writer emits the same bytes a new one would.
var (
	flateWriters = sync.Pool{New: func() any {
		zw, _ := flate.NewWriter(nil, flate.BestSpeed) // a valid level never fails
		return zw
	}}
	flateReaders sync.Pool // of *inflater
)

// inflater is a pooled DEFLATE reader with the byte reader it reads
// from.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser
}

// inflate returns the decompressed payload, reading at most limit+1
// bytes of it.
func inflate(payload []byte, limit int64) ([]byte, error) {
	in, ok := flateReaders.Get().(*inflater)
	if !ok {
		in = &inflater{}
		in.zr = flate.NewReader(&in.src)
	}
	in.src.Reset(payload)
	in.zr.(flate.Resetter).Reset(&in.src, nil)
	raw, err := io.ReadAll(io.LimitReader(in.zr, limit+1))
	in.src.Reset(nil)
	flateReaders.Put(in)
	return raw, err
}

// EncodeDeltaBinary encodes one DeltaResponse as a binary frame,
// compressing the payload when it is DeltaCompressMin bytes or more.
func EncodeDeltaBinary(d *DeltaResponse) ([]byte, error) {
	if len(d.Versions) != 0 && len(d.Versions) != len(d.Vaccines) {
		return nil, fmt.Errorf("fleet: encoding delta: %d versions for %d vaccines",
			len(d.Versions), len(d.Vaccines))
	}
	payload := binary.AppendUvarint(nil, d.Since)
	payload = binary.AppendUvarint(payload, d.Version)
	payload = appendString(payload, d.ETag)
	payload = appendString(payload, d.Generator)
	payload = binary.AppendUvarint(payload, uint64(len(d.Versions)))
	prev := uint64(0)
	for _, v := range d.Versions {
		payload = binary.AppendVarint(payload, int64(v-prev))
		prev = v
	}
	var err error
	payload, err = vaccine.AppendBinary(payload, d.Vaccines)
	if err != nil {
		return nil, err
	}

	flags := byte(0)
	if d.Complete {
		flags |= deltaFlagComplete
	}
	if d.Reset {
		flags |= deltaFlagReset
	}
	if len(payload) >= DeltaCompressMin {
		var zb bytes.Buffer
		zw := flateWriters.Get().(*flate.Writer)
		zw.Reset(&zb)
		_, err := zw.Write(payload)
		if err == nil {
			err = zw.Close()
		}
		zw.Reset(nil)
		flateWriters.Put(zw)
		if err != nil {
			return nil, err
		}
		payload = zb.Bytes()
		flags |= deltaFlagCompressed
	}

	out := make([]byte, 0, len(deltaMagic)+1+len(payload))
	out = append(out, deltaMagic...)
	out = append(out, flags)
	return append(out, payload...), nil
}

// appendString emits one length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeDeltaBinary decodes a binary delta frame. Every failure —
// short frame, bad magic, unknown flags, truncated field, corrupt
// DEFLATE stream, trailing garbage — returns an error wrapping
// ErrDeltaMalformed (or vaccine.ErrBinaryMalformed for the vaccine
// section); arbitrary input never panics and never yields a
// structurally inconsistent response.
func DecodeDeltaBinary(data []byte) (*DeltaResponse, error) {
	if len(data) < len(deltaMagic)+1 {
		return nil, fmt.Errorf("%w: %d-byte frame", ErrDeltaMalformed, len(data))
	}
	if string(data[:len(deltaMagic)]) != deltaMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrDeltaMalformed, data[:len(deltaMagic)])
	}
	flags := data[len(deltaMagic)]
	if flags&^byte(deltaKnownFlags) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrDeltaMalformed, flags)
	}
	payload := data[len(deltaMagic)+1:]
	if flags&deltaFlagCompressed != 0 {
		raw, err := inflate(payload, maxDeltaPayload)
		if err != nil {
			return nil, fmt.Errorf("%w: inflating payload: %v", ErrDeltaMalformed, err)
		}
		if len(raw) > maxDeltaPayload {
			return nil, fmt.Errorf("%w: payload exceeds %d bytes", ErrDeltaMalformed, maxDeltaPayload)
		}
		payload = raw
	}

	d := &DeltaResponse{
		Complete: flags&deltaFlagComplete != 0,
		Reset:    flags&deltaFlagReset != 0,
	}
	var ok bool
	if d.Since, payload, ok = readUvarint(payload); !ok {
		return nil, fmt.Errorf("%w: truncated Since", ErrDeltaMalformed)
	}
	if d.Version, payload, ok = readUvarint(payload); !ok {
		return nil, fmt.Errorf("%w: truncated Version", ErrDeltaMalformed)
	}
	if d.ETag, payload, ok = readString(payload); !ok {
		return nil, fmt.Errorf("%w: truncated ETag", ErrDeltaMalformed)
	}
	if d.Generator, payload, ok = readString(payload); !ok {
		return nil, fmt.Errorf("%w: truncated Generator", ErrDeltaMalformed)
	}
	nver, payload, ok := readUvarint(payload)
	if !ok || nver > uint64(len(payload))+1 {
		return nil, fmt.Errorf("%w: bad version list", ErrDeltaMalformed)
	}
	if nver > 0 {
		d.Versions = make([]uint64, 0, nver)
		prev := uint64(0)
		for i := uint64(0); i < nver; i++ {
			diff, n := binary.Varint(payload)
			if n <= 0 {
				return nil, fmt.Errorf("%w: truncated version delta", ErrDeltaMalformed)
			}
			payload = payload[n:]
			prev += uint64(diff)
			d.Versions = append(d.Versions, prev)
		}
	}
	vs, rest, err := vaccine.DecodeBinary(payload)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrDeltaMalformed, len(rest))
	}
	if len(d.Versions) != 0 && len(d.Versions) != len(vs) {
		return nil, fmt.Errorf("%w: %d versions for %d vaccines", ErrDeltaMalformed, len(d.Versions), len(vs))
	}
	d.Vaccines = vs
	return d, nil
}

// readUvarint consumes one uvarint, returning the remainder.
func readUvarint(data []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, false
	}
	return v, data[n:], true
}

// readString consumes one length-prefixed string.
func readString(data []byte) (string, []byte, bool) {
	n, rest, ok := readUvarint(data)
	if !ok || n > uint64(len(rest)) {
		return "", nil, false
	}
	return string(rest[:n]), rest[n:], true
}

// isBinaryDelta reports whether a Content-Type names the binary codec.
func isBinaryDelta(contentType string) bool {
	return strings.HasPrefix(contentType, ContentTypeDelta)
}

// acceptsBinaryDelta reports whether an Accept header opts into the
// binary codec.
func acceptsBinaryDelta(accept string) bool {
	return strings.Contains(accept, ContentTypeDelta)
}
