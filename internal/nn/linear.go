// Package nn is a minimal neural-network library written from scratch on the
// standard library, sufficient to implement the NeuroCuts policy: dense
// layers with tanh activations, masked categorical distributions, an
// actor-critic network with a shared trunk, manual backpropagation, and the
// Adam optimizer. No autograd framework exists for Go, so gradients are
// derived and implemented by hand and verified against numerical
// differentiation in the package tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Linear is a fully-connected layer computing y = W·x + b.
type Linear struct {
	// In and Out are the input and output widths.
	In, Out int
	// W is the weight matrix in row-major order: W[o*In+i] connects input i
	// to output o. B is the bias vector.
	W, B []float64
	// GradW and GradB accumulate parameter gradients across Backward calls
	// until ZeroGrad is called.
	GradW, GradB []float64
}

// NewLinear creates a layer with Xavier/Glorot-uniform initialised weights
// and zero biases, drawing from rng for reproducibility.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: make([]float64, in*out), B: make([]float64, out),
		GradW: make([]float64, in*out), GradB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W {
		l.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return l
}

// Forward computes the layer output for a single input vector.
//
// It computes four outputs per pass over x: one sum waits on its previous
// add, four independent ones keep the adder busy. Each sum still starts at
// its bias and adds its terms in input order, so the outputs are the bits
// one output at a time would give.
func (l *Linear) Forward(x []float64) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear.Forward input size %d, want %d", len(x), l.In))
	}
	y := make([]float64, l.Out)
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		r0 := l.W[o*l.In : (o+1)*l.In]
		r1 := l.W[(o+1)*l.In : (o+2)*l.In][:len(r0)]
		r2 := l.W[(o+2)*l.In : (o+3)*l.In][:len(r0)]
		r3 := l.W[(o+3)*l.In : (o+4)*l.In][:len(r0)]
		s0, s1, s2, s3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
		for i, xi := range x[:len(r0)] {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
	return y
}

// Backward accumulates parameter gradients for one sample given the input x
// that produced the forward pass and the gradient dy of the loss with
// respect to the layer output. It returns the gradient with respect to x.
func (l *Linear) Backward(x, dy []float64) []float64 {
	if len(x) != l.In || len(dy) != l.Out {
		panic(fmt.Sprintf("nn: Linear.Backward sizes %d/%d, want %d/%d", len(x), len(dy), l.In, l.Out))
	}
	dx := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		l.GradB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		gradRow := l.GradW[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			gradRow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
	return dx
}

// forwardSparse is Forward for an input whose entries outside nonzero (its
// ascending nonzero positions) are all zero, four outputs per pass like
// Forward. Each sum adds the same nonzero terms in the same order as
// Forward, so the outputs are bit-identical for finite weights.
func (l *Linear) forwardSparse(x []float64, nonzero []int32) []float64 {
	y := make([]float64, l.Out)
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		r0 := l.W[o*l.In : (o+1)*l.In]
		r1 := l.W[(o+1)*l.In : (o+2)*l.In]
		r2 := l.W[(o+2)*l.In : (o+3)*l.In]
		r3 := l.W[(o+3)*l.In : (o+4)*l.In]
		s0, s1, s2, s3 := l.B[o], l.B[o+1], l.B[o+2], l.B[o+3]
		for _, i := range nonzero {
			xi := x[i]
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for _, i := range nonzero {
			sum += row[i] * x[i]
		}
		y[o] = sum
	}
	return y
}

// backwardSparse is Backward for the same input as forwardSparse, without
// the input gradient. A skipped GradW term would add g·0 = ±0 to an
// accumulator that is +0 or nonzero, which leaves it unchanged, so the
// accumulated gradients are bit-identical to Backward's for finite g.
func (l *Linear) backwardSparse(x []float64, nonzero []int32, dy []float64) {
	for o, g := range dy {
		if g == 0 {
			continue
		}
		l.GradB[o] += g
		gradRow := l.GradW[o*l.In : (o+1)*l.In]
		for _, i := range nonzero {
			gradRow[i] += g * x[i]
		}
	}
}

// ZeroGrad clears the accumulated gradients.
func (l *Linear) ZeroGrad() {
	for i := range l.GradW {
		l.GradW[i] = 0
	}
	for i := range l.GradB {
		l.GradB[i] = 0
	}
}

// Params returns the layer's parameter slices (weights then biases), used by
// optimizers and checkpointing.
func (l *Linear) Params() [][]float64 { return [][]float64{l.W, l.B} }

// Grads returns the gradient slices aligned with Params.
func (l *Linear) Grads() [][]float64 { return [][]float64{l.GradW, l.GradB} }

// Tanh applies the hyperbolic tangent elementwise and returns the result.
func Tanh(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// TanhBackward returns the gradient with respect to the tanh input given the
// tanh output y and the upstream gradient dy.
func TanhBackward(y, dy []float64) []float64 {
	dx := make([]float64, len(y))
	for i := range y {
		dx[i] = dy[i] * (1 - y[i]*y[i])
	}
	return dx
}
