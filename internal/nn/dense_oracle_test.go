package nn

import (
	"fmt"
	"math"
	"testing"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// referenceDenseForward is the per-sample Dense forward: one tensor.Dot per
// (sample, output), then the bias. It is the oracle for the blocked
// kernel's summation order.
func referenceDenseForward(d *Dense, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(x.Rows, d.OutDim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		o := out.Row(i)
		for j := 0; j < d.OutDim; j++ {
			o[j] = tensor.Dot(d.w.Row(j), row) + d.b[j]
		}
	}
	return out
}

// referenceDenseBackward is the per-sample Dense backward: for each sample
// and each nonzero upstream gradient, one bias add and two tensor.Axpy
// calls. It accumulates into dw and db.
func referenceDenseBackward(d *Dense, x, dout *tensor.Matrix, dw *tensor.Matrix, db []float64) *tensor.Matrix {
	dx := tensor.NewMatrix(x.Rows, d.InDim)
	for i := 0; i < x.Rows; i++ {
		xr := x.Row(i)
		dr := dout.Row(i)
		dxr := dx.Row(i)
		for j, g := range dr {
			if g == 0 {
				continue
			}
			db[j] += g
			tensor.Axpy(g, xr, dw.Row(j))
			tensor.Axpy(g, d.w.Row(j), dxr)
		}
	}
	return dx
}

// oracleValue draws a value for the oracle's inputs: mostly ordinary
// normals, with zeros of both signs and, when special is set, ±Inf and NaN.
func oracleValue(r *rng.Source, special bool) float64 {
	switch u := r.Intn(40); {
	case u == 0:
		return 0
	case u == 1:
		return math.Copysign(0, -1)
	case special && u == 2:
		return math.Inf(1)
	case special && u == 3:
		return math.Inf(-1)
	case special && u == 4:
		return math.NaN()
	}
	return r.NormFloat64()
}

func fillOracle(v []float64, r *rng.Source, special bool) {
	for i := range v {
		v[i] = oracleValue(r, special)
	}
}

// sameBits compares a and b bit for bit, except that any NaN matches any
// NaN: when both addends of a sum are NaN, which payload the result carries
// depends on the operand order the compiler picks for the commutative add,
// which Go leaves unspecified. The reference itself can change its NaN
// payloads between compiler versions.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return -1, len(a) == len(b)
}

// TestDenseMatchesReference checks the register-blocked Dense kernels bit
// for bit against the per-sample reference: forward output, dx, and the
// accumulated dW and db. Shapes cover dimensions that are not multiples of
// the kernels' block sizes, batch 1 and odd batches; upstream gradients are
// partly zeroed (of both signs) as a ReLU leaves them; weights carry −0,
// ±Inf and NaN, and the gradient accumulators start nonzero.
func TestDenseMatchesReference(t *testing.T) {
	r := rng.New(11)
	for _, in := range []int{1, 3, 4, 5, 7, 64} {
		for _, out := range []int{1, 2, 3, 4, 5, 10, 13} {
			for _, batch := range []int{1, 2, 3, 7, 16} {
				for _, special := range []bool{false, true} {
					name := fmt.Sprintf("in%d/out%d/batch%d/special=%v", in, out, batch, special)
					d := NewDense(in, out, r)
					fillOracle(d.w.Data, r, special)
					fillOracle(d.b, r, special)
					fillOracle(d.dw.Data, r, false)
					fillOracle(d.db, r, false)
					x := tensor.NewMatrix(batch, in)
					fillOracle(x.Data, r, false)
					dout := tensor.NewMatrix(batch, out)
					for i := range dout.Data {
						if r.Intn(3) == 0 { // a ReLU's dead unit
							dout.Data[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
						} else {
							dout.Data[i] = r.NormFloat64()
						}
					}

					wantOut := referenceDenseForward(d, x)
					wantDW, wantDB := d.dw.Clone(), append([]float64(nil), d.db...)
					wantDX := referenceDenseBackward(d, x, dout, wantDW, wantDB)

					gotOut := d.Forward(x, true)
					gotDX := d.Backward(dout)
					for _, c := range []struct {
						what      string
						got, want []float64
					}{
						{"forward", gotOut.Data, wantOut.Data},
						{"dx", gotDX.Data, wantDX.Data},
						{"dw", d.dw.Data, wantDW.Data},
						{"db", d.db, wantDB},
					} {
						if i, ok := sameBits(c.got, c.want); !ok {
							t.Fatalf("%s: %s differs at %d: got %v (%#x), want %v (%#x)", name, c.what, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkTrainBatch times one TrainBatch (forward, backward, SGD step) on
// the MLP shapes of the layered benchmark's training workloads: 64 inputs,
// as dataset.TinyTask generates them.
func BenchmarkTrainBatch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		hidden  []int
		classes int
		batch   int
	}{
		{"saps-train/mlp64-64-4/b32", []int{64}, 4, 32},
		{"topk-gather/mlp64-256-128-10/b16", []int{256, 128}, 10, 16},
		{"adpsgd-async/mlp64-64-4/b16", []int{64}, 4, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const in = 64
			m := NewMLP(in, bc.hidden, bc.classes, 1)
			r := rng.New(3)
			xs := make([][]float64, bc.batch)
			labels := make([]int, bc.batch)
			for i := range xs {
				xs[i] = make([]float64, in)
				for k := range xs[i] {
					xs[i][k] = r.NormFloat64()
				}
				labels[i] = r.Intn(bc.classes)
			}
			opt := &SGD{LR: 0.01}
			b.ReportAllocs()
			for b.Loop() {
				TrainBatch(m, opt, xs, labels)
			}
		})
	}
}
