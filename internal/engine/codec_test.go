package engine_test

import (
	"math"
	"testing"

	"sapspsgd/internal/engine"
)

// sparseDecoder is what TopK and RandomK offer a receiver.
type sparseDecoder interface {
	engine.Codec
	engine.DecoderInto
	engine.DecodeAdder
}

// TestSparseWordsRejectsMalformed pins one regression per malformed sparse
// payload: SparseWords and every sparse decoder reject it with the same
// error, and DecodeAdd leaves its destination untouched.
func TestSparseWordsRejectsMalformed(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		words []float64
	}{
		{"negative dim", []float64{-5, 0}},
		{"fractional dim", []float64{4.5, 0}},
		{"NaN dim", []float64{nan, 0}},
		{"fractional k", []float64{4, 0.5, 1}},
		{"duplicate index", []float64{4, 2, 1, 1, 7, 9}},
		{"descending index", []float64{4, 2, 3, 1, 7, 9}},
		{"fractional index", []float64{4, 1, 1.5, 7}},
		{"index at dim", []float64{4, 1, 4, 7}},
		{"negative index", []float64{4, 1, -1, 7}},
		{"NaN index", []float64{4, 1, nan, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, want := engine.SparseWords(tc.words)
			if want == nil {
				t.Fatalf("SparseWords accepted %v", tc.words)
			}
			ctx := engine.RoundContext{}
			for _, c := range []sparseDecoder{engine.NewTopK(1, 4, false), engine.NewRandomK(1, 1)} {
				if _, err := c.Decode(ctx, tc.words); err == nil || err.Error() != want.Error() {
					t.Errorf("%s Decode error %v, want %v", c.Name(), err, want)
				}
				if _, err := c.DecodeInto(nil, ctx, tc.words); err == nil || err.Error() != want.Error() {
					t.Errorf("%s DecodeInto error %v, want %v", c.Name(), err, want)
				}
				dst := []float64{1, 2, 3, 4}
				if err := c.DecodeAdd(dst, ctx, tc.words); err == nil || err.Error() != want.Error() {
					t.Errorf("%s DecodeAdd error %v, want %v", c.Name(), err, want)
				}
				if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 || dst[3] != 4 {
					t.Errorf("%s DecodeAdd wrote %v on error", c.Name(), dst)
				}
			}
		})
	}
}

// TestTopKRejectsForeignDim: a top-k codec rejects vectors and payloads of
// a dimension other than its constructor's before sizing any buffer from
// them — a 2³⁰-entry header must not allocate 8 GiB.
func TestTopKRejectsForeignDim(t *testing.T) {
	ctx := engine.RoundContext{}
	c := engine.NewTopK(1, 4, true)
	if _, err := c.Encode(ctx, make([]float64, 5)); err == nil {
		t.Fatal("Encode accepted a 5-vector on a 4-dimensional codec")
	}
	// The rejected Encode allocated no residual, so the snapshot carries
	// none and restores into a codec of any dimension.
	if st, err := c.CaptureState(); err != nil {
		t.Fatal(err)
	} else if err := engine.NewTopK(1, 5, true).RestoreState(st); err != nil {
		t.Fatalf("fresh snapshot without residual: %v", err)
	}
	huge := []float64{1 << 30, 1, 0, 1}
	if _, err := c.Decode(ctx, huge); err == nil {
		t.Fatal("Decode accepted a foreign dimension")
	}
	if _, err := c.DecodeInto(nil, ctx, huge); err == nil {
		t.Fatal("DecodeInto accepted a foreign dimension")
	}
	if err := c.DecodeAdd(make([]float64, 4), ctx, huge); err == nil {
		t.Fatal("DecodeAdd accepted a foreign dimension")
	}
	if _, err := c.Encode(ctx, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	st, err := c.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.NewTopK(1, 5, true).RestoreState(st); err == nil {
		t.Fatal("RestoreState accepted a residual of a foreign dimension")
	}
}

// fuzzWords decodes the fuzzer's bytes two at a time into wire words: the
// first byte picks a kind and the second a small signed value, so integer
// headers, duplicate and fractional indices and the special values −0,
// ±Inf and NaN all lie a byte flip away.
func fuzzWords(data []byte) []float64 {
	words := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		v := float64(int8(data[i+1]))
		var w float64
		switch data[i] % 8 {
		case 0, 1, 2:
			w = v
		case 3:
			w = v / 4
		case 4:
			w = math.Copysign(0, -1)
		case 5:
			w = math.Inf(int(math.Copysign(1, v)))
		case 6:
			w = math.NaN()
		case 7:
			w = v * 1e6
		}
		words = append(words, w)
	}
	return words
}

// fuzzDst fills a destination from seed: ordinary values, +0 and ±Inf, and
// −0 entries when negZero is set. It holds no NaN: DecodeAdd's exactness
// argument covers accumulators free of NaN, and the engine decodes densely
// otherwise.
func fuzzDst(n int, seed uint64, negZero bool) []float64 {
	dst := make([]float64, n)
	for i := range dst {
		seed = seed*6364136223846793005 + 1442695040888963407
		switch r := seed >> 59; {
		case r < 4:
			dst[i] = 0
		case r < 6 && negZero:
			dst[i] = math.Copysign(0, -1)
		case r == 6:
			dst[i] = math.Inf(1)
		case r == 7:
			dst[i] = math.Inf(-1)
		default:
			dst[i] = float64(int64(seed>>11)) / (1 << 50)
		}
	}
	return dst
}

// FuzzDecodeAdd checks DecodeAdd against DecodeInto followed by an
// element-wise add, bit for bit, for both sparse codecs. Malformed words
// must give DecodeInto's error and leave the destination untouched, as must
// a payload of the wrong length. The one permitted difference is the
// signed-zero case DecodeAdder documents: an off-support −0 entry keeps its
// sign, where adding the decoded +0 would clear it.
func FuzzDecodeAdd(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, dstSeed uint64, negZero, skew bool) {
		words := fuzzWords(data)
		ctx := engine.RoundContext{}
		codecs := []sparseDecoder{engine.NewTopK(1, 16, false)}
		if len(words) > 0 && !(words[0] > 4096) {
			// RandomK takes the payload's dimension as is; keep its
			// allocation small.
			codecs = append(codecs, engine.NewRandomK(1, 1))
		}
		for _, c := range codecs {
			ref, refErr := c.DecodeInto(nil, ctx, words)
			n := len(ref)
			if skew {
				n++
			}
			dst := fuzzDst(n, dstSeed, negZero)
			got := append([]float64(nil), dst...)
			err := c.DecodeAdd(got, ctx, words)
			if refErr != nil || skew {
				if err == nil {
					t.Fatalf("%s: DecodeAdd accepted %v (DecodeInto error %v, skew %v)", c.Name(), words, refErr, skew)
				}
				if refErr != nil && err.Error() != refErr.Error() {
					t.Fatalf("%s: DecodeAdd error %q, DecodeInto error %q", c.Name(), err, refErr)
				}
				for j := range dst {
					if math.Float64bits(got[j]) != math.Float64bits(dst[j]) {
						t.Fatalf("%s: DecodeAdd wrote dst[%d] = %v on error", c.Name(), j, got[j])
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: DecodeAdd error %v on words DecodeInto accepts", c.Name(), err)
			}
			_, idx, _, _ := engine.SparseWords(words)
			support := make(map[int]bool, len(idx))
			for _, ix := range idx {
				support[int(ix)] = true
			}
			for j := range dst {
				want := dst[j]
				want += ref[j]
				if math.Float64bits(got[j]) == math.Float64bits(want) {
					continue
				}
				if !support[j] && math.Float64bits(dst[j]) == 1<<63 && math.Float64bits(got[j]) == 1<<63 {
					continue // off-support −0 kept: the documented difference
				}
				t.Fatalf("%s: dst[%d] = %v + %v: DecodeAdd gives %v (%#x), dense add %v (%#x)",
					c.Name(), j, dst[j], ref[j], got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
			}
		}
	})
}
