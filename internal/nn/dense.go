package nn

import (
	"fmt"
	"math"

	"sapspsgd/internal/rng"
	"sapspsgd/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b.
type Dense struct {
	InDim, OutDim int
	w             *tensor.Matrix // OutDim × InDim
	b             []float64
	dw            *tensor.Matrix
	db            []float64
	x             *tensor.Matrix // cached input
}

// NewDense returns a dense layer with He-initialized weights.
func NewDense(in, out int, r *rng.Source) *Dense {
	if in < 1 || out < 1 {
		panic(fmt.Sprintf("nn: Dense(%d,%d)", in, out))
	}
	d := &Dense{
		InDim:  in,
		OutDim: out,
		w:      tensor.NewMatrix(out, in),
		b:      make([]float64, out),
		dw:     tensor.NewMatrix(out, in),
		db:     make([]float64, out),
	}
	std := math.Sqrt(2 / float64(in))
	for i := range d.w.Data {
		d.w.Data[i] = std * r.NormFloat64()
	}
	return d
}

// Forward computes the affine map for the batch.
//
// The kernel is register-blocked over two samples and four outputs, but
// every output element sees exactly the operations of a per-sample
// tensor.Dot: 0.0 + Σ_k w·x accumulated in k order with the acc += w*x
// shape, no zero-skipping, then + b. The outputs are bit-identical to a
// Dot per (sample, output), which dense_oracle_test.go keeps as reference.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.InDim {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", x.Cols, d.InDim))
	}
	if train {
		d.x = x
	}
	out := tensor.NewMatrix(x.Rows, d.OutDim)
	i := 0
	for ; i+2 <= x.Rows; i += 2 {
		x0, x1 := x.Row(i), x.Row(i+1)
		o0, o1 := out.Row(i), out.Row(i+1)
		j := 0
		for ; j+4 <= d.OutDim; j += 4 {
			s00, s01, s02, s03, s10, s11, s12, s13 := dot4x2(d.w.Row(j), d.w.Row(j+1), d.w.Row(j+2), d.w.Row(j+3), x0, x1)
			b := d.b[j : j+4]
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00+b[0], s01+b[1], s02+b[2], s03+b[3]
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10+b[0], s11+b[1], s12+b[2], s13+b[3]
		}
		for ; j < d.OutDim; j++ {
			o0[j] = tensor.Dot(d.w.Row(j), x0) + d.b[j]
			o1[j] = tensor.Dot(d.w.Row(j), x1) + d.b[j]
		}
	}
	if i < x.Rows {
		x0, o0 := x.Row(i), out.Row(i)
		j := 0
		for ; j+4 <= d.OutDim; j += 4 {
			s0, s1, s2, s3 := dot4x1(d.w.Row(j), d.w.Row(j+1), d.w.Row(j+2), d.w.Row(j+3), x0)
			b := d.b[j : j+4]
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s0+b[0], s1+b[1], s2+b[2], s3+b[3]
		}
		for ; j < d.OutDim; j++ {
			o0[j] = tensor.Dot(d.w.Row(j), x0) + d.b[j]
		}
	}
	return out
}

// dot4x2 returns the dot products of four weight rows with two inputs,
// s<sample><row>, each accumulated from 0 in k order as tensor.Dot does.
// The eight independent accumulators hide the add latency a single Dot
// chain waits on, and each loaded input and weight is used several times.
func dot4x2(w0, w1, w2, w3, x0, x1 []float64) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	n := len(x0)
	w0, w1, w2, w3, x1 = w0[:n], w1[:n], w2[:n], w3[:n], x1[:n]
	for k, a := range x0 {
		c := x1[k]
		s00 += w0[k] * a
		s01 += w1[k] * a
		s02 += w2[k] * a
		s03 += w3[k] * a
		s10 += w0[k] * c
		s11 += w1[k] * c
		s12 += w2[k] * c
		s13 += w3[k] * c
	}
	return
}

// dot4x1 is dot4x2 for one input: the odd last sample of a batch.
func dot4x1(w0, w1, w2, w3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	w0, w1, w2, w3 = w0[:n], w1[:n], w2[:n], w3[:n]
	for k, a := range x {
		s0 += w0[k] * a
		s1 += w1[k] * a
		s2 += w2[k] * a
		s3 += w3[k] * a
	}
	return
}

// Backward accumulates dW, db and returns dx.
//
// Each accumulator receives the terms of a per-sample loop (for each sample
// i and output j with g = dout[i][j] != 0: db[j] += g, dW[j] += g·x[i],
// dx[i] += g·W[j]) in the same order and with the same y += g*x shape:
// db[j] and dW row j sum over samples in ascending order, and dx row i sums
// over outputs in ascending order, starting from zero. The
// nonzero terms are gathered four at a time and applied in one pass over the
// destination row, so each destination element is loaded and stored once
// per four updates.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward before training Forward")
	}
	x := d.x
	for j := 0; j < d.OutDim; j++ {
		var acc axpyBlock
		dwj := d.dw.Row(j)
		for i := 0; i < x.Rows; i++ {
			g := dout.Data[i*dout.Cols+j]
			if g == 0 {
				continue
			}
			d.db[j] += g
			acc.add(g, x.Row(i), dwj)
		}
		acc.flush(dwj)
	}
	dx := tensor.NewMatrix(x.Rows, d.InDim)
	for i := 0; i < x.Rows; i++ {
		var acc axpyBlock
		dxr := dx.Row(i)
		for j, g := range dout.Row(i) {
			if g == 0 {
				continue
			}
			acc.add(g, d.w.Row(j), dxr)
		}
		acc.flush(dxr)
	}
	d.x = nil
	return dx
}

// axpyBlock gathers up to four pending y += g·x updates of one destination
// row and applies them together, in the order they were added.
type axpyBlock struct {
	g [4]float64
	x [4][]float64
	n int
}

// add queues y += g·x, applying the queue to y once it holds four updates.
func (a *axpyBlock) add(g float64, x, y []float64) {
	a.g[a.n], a.x[a.n] = g, x
	a.n++
	if a.n == 4 {
		axpy4(a.g[0], a.g[1], a.g[2], a.g[3], a.x[0], a.x[1], a.x[2], a.x[3], y)
		a.n = 0
	}
}

// flush applies the queued updates to y one at a time.
func (a *axpyBlock) flush(y []float64) {
	for k := 0; k < a.n; k++ {
		tensor.Axpy(a.g[k], a.x[k], y)
	}
	a.n = 0
}

// axpy4 applies y += g0·x0, y += g1·x1, y += g2·x2, y += g3·x3 in that
// order, element by element.
func axpy4(g0, g1, g2, g3 float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for k, v := range y {
		v += g0 * x0[k]
		v += g1 * x1[k]
		v += g2 * x2[k]
		v += g3 * x3[k]
		y[k] = v
	}
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: "dense.w", Data: d.w.Data, Grad: d.dw.Data},
		{Name: "dense.b", Data: d.b, Grad: d.db},
	}
}

var _ Layer = (*Dense)(nil)
