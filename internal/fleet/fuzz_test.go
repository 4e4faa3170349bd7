package fleet

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"autovac/internal/core"
	"autovac/internal/exclusive"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
)

// corpusPackOnce builds one real vaccine pack by running the actual
// analysis pipeline over a slice of the 64-sample corpus plus the
// Conficker and Sality family samples — the same content the fleet
// ships in production, so the fuzz seeds carry real IDs, identifiers,
// and (from the two families' host-derived mutexes) replay slices.
// Built once; fuzzing and seeding share it.
var corpusPackOnce = sync.OnceValues(func() ([]vaccine.Vaccine, error) {
	benign, err := malware.BenignCorpus()
	if err != nil {
		return nil, err
	}
	ix, err := exclusive.BuildIndex(benign, 1)
	if err != nil {
		return nil, err
	}
	pipeline := core.New(core.Config{Seed: 1, Index: ix})
	gen := malware.NewGenerator(1)
	samples, err := gen.Corpus(64)
	if err != nil {
		return nil, err
	}
	// A slice of the corpus keeps the seed build fast (it runs once per
	// fuzz worker process) while still spanning several families — and
	// with them identifier classes.
	samples = samples[:6]
	for _, f := range []malware.Family{malware.Conficker, malware.Sality} {
		s, err := gen.FamilySample(f)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	var vs []vaccine.Vaccine
	for _, s := range samples {
		res, err := pipeline.Analyze(s)
		if err != nil {
			continue // a sample the pipeline refuses is fine for seeding
		}
		vs = append(vs, res.Vaccines...)
	}
	return vs, nil
})

// FuzzDeltaCodec fuzzes the binary delta decoder with two invariants:
//
//  1. Decoding arbitrary bytes never panics; a reject is always a
//     typed error (ErrDeltaMalformed or vaccine.ErrBinaryMalformed).
//  2. Accepted frames are stable: re-encoding the decoded response and
//     decoding that again yields byte-identical encodings. (Byte
//     stability rather than value comparison keeps NaN BDR values —
//     decodable but not equal to themselves — in scope.)
//
// Seeds are real: deltas cut from a registry filled by the actual
// analysis pipeline over the 64-sample corpus, in both compressed and
// uncompressed framing, plus edge frames and raw garbage.
func FuzzDeltaCodec(f *testing.F) {
	vs, err := corpusPackOnce()
	if err != nil {
		f.Fatal(err)
	}
	if len(vs) == 0 {
		f.Fatal("corpus pipeline produced no vaccines to seed with")
	}
	reg := NewRegistry(0)
	reg.SetGenerator("fuzz-seed")
	if _, _, err := reg.Publish(vs...); err != nil {
		f.Fatal(err)
	}
	seed := func(d *DeltaResponse) {
		enc, err := EncodeDeltaBinary(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	seed(reg.Delta(0))                           // full corpus pack (compressed)
	seed(reg.Delta(reg.Latest() - 1))            // one-vaccine tail (uncompressed)
	seed(reg.Delta(reg.Latest()))                // empty delta
	seed(&DeltaResponse{ETag: "e", Reset: true}) // reset frame
	f.Add([]byte("AVD1"))
	f.Add([]byte("AVD1\x00"))
	f.Add([]byte("AVD1\x01\x00\x00"))
	f.Add([]byte("not a delta at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeltaBinary(data)
		if err != nil {
			if !errors.Is(err, ErrDeltaMalformed) && !errors.Is(err, vaccine.ErrBinaryMalformed) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc1, err := EncodeDeltaBinary(d)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		d2, err := DecodeDeltaBinary(enc1)
		if err != nil {
			t.Fatalf("decoding our own encoding failed: %v", err)
		}
		enc2, err := EncodeDeltaBinary(d2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("codec not stable: %d-byte vs %d-byte re-encodings differ", len(enc1), len(enc2))
		}
	})
}
