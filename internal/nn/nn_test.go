package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearForwardKnownValues(t *testing.T) {
	l := &Linear{In: 2, Out: 2,
		W:     []float64{1, 2, 3, 4}, // y0 = x0 + 2x1, y1 = 3x0 + 4x1
		B:     []float64{0.5, -0.5},
		GradW: make([]float64, 4), GradB: make([]float64, 2),
	}
	y := l.Forward([]float64{1, 1})
	if math.Abs(y[0]-3.5) > 1e-12 || math.Abs(y[1]-6.5) > 1e-12 {
		t.Errorf("forward = %v", y)
	}
}

func TestLinearPanicsOnBadSizes(t *testing.T) {
	l := NewLinear(3, 2, rand.New(rand.NewSource(1)))
	assertPanic(t, func() { l.Forward([]float64{1}) })
	assertPanic(t, func() { l.Backward([]float64{1, 2, 3}, []float64{1}) })
}

func assertPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestLinearGradientCheck verifies the analytic gradients of a linear+tanh
// stack against central finite differences.
func TestLinearGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(4, 3, rng)
	x := []float64{0.3, -0.2, 0.8, -0.5}
	target := []float64{0.1, -0.4, 0.7}

	loss := func() float64 {
		y := Tanh(l.Forward(x))
		sum := 0.0
		for i := range y {
			d := y[i] - target[i]
			sum += 0.5 * d * d
		}
		return sum
	}

	// Analytic gradients.
	l.ZeroGrad()
	y := Tanh(l.Forward(x))
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = y[i] - target[i]
	}
	l.Backward(x, TanhBackward(y, dy))

	const eps = 1e-6
	for i := range l.W {
		orig := l.W[i]
		l.W[i] = orig + eps
		plus := loss()
		l.W[i] = orig - eps
		minus := loss()
		l.W[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-l.GradW[i]) > 1e-5 {
			t.Fatalf("weight %d: analytic %v numeric %v", i, l.GradW[i], numeric)
		}
	}
	for i := range l.B {
		orig := l.B[i]
		l.B[i] = orig + eps
		plus := loss()
		l.B[i] = orig - eps
		minus := loss()
		l.B[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-l.GradB[i]) > 1e-5 {
			t.Fatalf("bias %d: analytic %v numeric %v", i, l.GradB[i], numeric)
		}
	}
}

func TestSoftmaxAndMask(t *testing.T) {
	p := Softmax([]float64{1, 1, 1, 1})
	for _, v := range p {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("uniform softmax = %v", p)
		}
	}
	p = MaskedSoftmax([]float64{5, 1, 1}, []bool{false, true, true})
	if p[0] != 0 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Errorf("masked softmax = %v", p)
	}
	// Huge logits must not overflow.
	p = Softmax([]float64{1000, 999})
	if math.IsNaN(p[0]) || p[0] < p[1] {
		t.Errorf("stability failure: %v", p)
	}
	// Fully masked falls back to uniform.
	p = MaskedSoftmax([]float64{1, 2}, []bool{false, false})
	if math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("fully masked = %v", p)
	}
	sum := 0.0
	for _, v := range Softmax([]float64{0.3, -2, 5, 0.1}) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax does not sum to 1: %v", sum)
	}
}

func TestSampleCategoricalAndArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probs := []float64{0.1, 0.7, 0.2}
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[SampleCategorical(probs, rng)]++
	}
	if counts[1] < 1800 || counts[0] > 600 {
		t.Errorf("sampling off: %v", counts)
	}
	if Argmax(probs) != 1 {
		t.Error("argmax wrong")
	}
	// Degenerate distribution.
	if got := SampleCategorical([]float64{0, 0, 1}, rng); got != 2 {
		t.Errorf("deterministic sample = %d", got)
	}
}

func TestEntropyAndLogProb(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if math.Abs(Entropy(uniform)-math.Log(4)) > 1e-9 {
		t.Errorf("uniform entropy = %v", Entropy(uniform))
	}
	delta := []float64{1, 0, 0, 0}
	if Entropy(delta) != 0 {
		t.Errorf("delta entropy = %v", Entropy(delta))
	}
	if math.Abs(LogProb(uniform, 2)-math.Log(0.25)) > 1e-9 {
		t.Error("logprob wrong")
	}
	if LogProb(delta, 1) > math.Log(1e-11) {
		t.Error("zero-prob logprob should be floored, not -Inf")
	}
}

// TestLogProbGradNumeric verifies d log p_idx / d logits against finite
// differences, including under a mask.
func TestLogProbGradNumeric(t *testing.T) {
	logits := []float64{0.5, -1.2, 0.3, 2.0}
	mask := []bool{true, true, false, true}
	idx := 0
	analytic := LogProbGrad(MaskedSoftmax(logits, mask), idx, mask)
	const eps = 1e-6
	for i := range logits {
		if !mask[i] {
			if analytic[i] != 0 {
				t.Errorf("masked entry %d has gradient %v", i, analytic[i])
			}
			continue
		}
		orig := logits[i]
		logits[i] = orig + eps
		plus := LogProb(MaskedSoftmax(logits, mask), idx)
		logits[i] = orig - eps
		minus := LogProb(MaskedSoftmax(logits, mask), idx)
		logits[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-5 {
			t.Fatalf("logit %d: analytic %v numeric %v", i, analytic[i], numeric)
		}
	}
}

// TestEntropyGradNumeric verifies d H / d logits against finite differences.
func TestEntropyGradNumeric(t *testing.T) {
	logits := []float64{0.1, 1.5, -0.7}
	analytic := EntropyGrad(Softmax(logits), nil)
	const eps = 1e-6
	for i := range logits {
		orig := logits[i]
		logits[i] = orig + eps
		plus := Entropy(Softmax(logits))
		logits[i] = orig - eps
		minus := Entropy(Softmax(logits))
		logits[i] = orig
		numeric := (plus - minus) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-5 {
			t.Fatalf("logit %d: analytic %v numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestActorCriticForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ac := NewActorCritic(10, 5, 7, []int{16, 16}, rng)
	obs := make([]float64, 10)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	cache := ac.Forward(obs)
	if len(cache.DimLogits) != 5 || len(cache.ActLogits) != 7 {
		t.Fatalf("logit shapes %d/%d", len(cache.DimLogits), len(cache.ActLogits))
	}
	if math.IsNaN(cache.Value) {
		t.Fatal("NaN value")
	}
	if len(ac.Layers()) == 0 || len(ac.Layers()[0].W) == 0 {
		t.Fatal("no parameters")
	}
	assertPanic(t, func() { ac.Forward(make([]float64, 3)) })
	// Default hidden layout when none is given.
	ac2 := NewActorCritic(4, 2, 3, nil, rng)
	if len(ac2.Hidden) == 0 {
		t.Error("default hidden layers missing")
	}
}

// TestActorCriticGradientCheck verifies the full-network backward pass
// against finite differences for a composite loss using both heads and the
// value output.
func TestActorCriticGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ac := NewActorCritic(6, 3, 4, []int{8}, rng)
	obs := make([]float64, 6)
	for i := range obs {
		obs[i] = rng.Float64()*2 - 1
	}
	dimIdx, actIdx := 1, 2
	targetValue := 0.7

	loss := func() float64 {
		c := ac.Forward(obs)
		lp := LogProb(Softmax(c.DimLogits), dimIdx) + LogProb(Softmax(c.ActLogits), actIdx)
		vErr := c.Value - targetValue
		return -lp + 0.5*vErr*vErr
	}

	ac.ZeroGrad()
	c := ac.Forward(obs)
	dDim := LogProbGrad(Softmax(c.DimLogits), dimIdx, nil)
	dAct := LogProbGrad(Softmax(c.ActLogits), actIdx, nil)
	// loss = -logp + 0.5*(v-target)^2, so dLoss/dlogits = -grad(logp) and
	// dLoss/dvalue = (v - target).
	for i := range dDim {
		dDim[i] = -dDim[i]
	}
	for i := range dAct {
		dAct[i] = -dAct[i]
	}
	ac.Backward(c, dDim, dAct, c.Value-targetValue)

	const eps = 1e-6
	for li, l := range ac.Layers() {
		for i := range l.W {
			orig := l.W[i]
			l.W[i] = orig + eps
			plus := loss()
			l.W[i] = orig - eps
			minus := loss()
			l.W[i] = orig
			numeric := (plus - minus) / (2 * eps)
			if math.Abs(numeric-l.GradW[i]) > 1e-4 {
				t.Fatalf("layer %d weight %d: analytic %v numeric %v", li, i, l.GradW[i], numeric)
			}
		}
	}
}

func TestActorCriticSaveLoadClone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ac := NewActorCritic(8, 5, 7, []int{12, 12}, rng)
	obs := make([]float64, 8)
	for i := range obs {
		obs[i] = rng.Float64()
	}
	before := ac.Forward(obs)

	data, err := ac.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &ActorCritic{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	after := restored.Forward(obs)
	for i := range before.DimLogits {
		if math.Abs(before.DimLogits[i]-after.DimLogits[i]) > 1e-12 {
			t.Fatal("restored network differs")
		}
	}
	if math.Abs(before.Value-after.Value) > 1e-12 {
		t.Fatal("restored value differs")
	}
	// The restored network is a clone: mutating it must not affect the
	// original.
	restored.Layers()[0].W[0] += 1
	if math.Abs(ac.Forward(obs).Value-before.Value) > 1e-12 {
		t.Fatal("restored network shares storage with original")
	}

	if err := restored.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("garbage checkpoint should fail")
	}
}

// clone deep-copies ac through its checkpoint encoding.
func clone(t *testing.T, ac *ActorCritic) *ActorCritic {
	t.Helper()
	data, err := ac.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := &ActorCritic{}
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAdamReducesLoss(t *testing.T) {
	// Train a small network to regress a fixed target; the loss must drop by
	// a large factor.
	rng := rand.New(rand.NewSource(17))
	ac := NewActorCritic(4, 3, 3, []int{16}, rng)
	opt := NewAdam(ac.Layers(), 1e-2)
	obs := []float64{0.5, -0.3, 0.9, 0.1}
	target := 2.5

	lossAt := func() float64 {
		c := ac.Forward(obs)
		d := c.Value - target
		return 0.5 * d * d
	}
	initial := lossAt()
	for step := 0; step < 300; step++ {
		ac.ZeroGrad()
		c := ac.Forward(obs)
		ac.Backward(c, make([]float64, 3), make([]float64, 3), c.Value-target)
		opt.Step(1)
	}
	final := lossAt()
	if final > initial*0.01 {
		t.Errorf("Adam failed to optimise: initial %v final %v", initial, final)
	}
}

func TestAdamGradClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ac := NewActorCritic(2, 2, 2, []int{4}, rng)
	opt := NewAdam(ac.Layers(), 1e-3)
	opt.MaxGradNorm = 0.5
	ac.ZeroGrad()
	c := ac.Forward([]float64{1, -1})
	// Gigantic value error produces a huge gradient that must be clipped
	// without blowing up the parameters.
	ac.Backward(c, make([]float64, 2), make([]float64, 2), 1e6)
	if opt.GradNorm() <= 0 {
		t.Fatal("gradient norm should be positive")
	}
	opt.Step(1)
	for _, l := range ac.Layers() {
		for _, w := range l.W {
			if math.IsNaN(w) || math.Abs(w) > 100 {
				t.Fatalf("parameter blew up: %v", w)
			}
		}
	}
	// Step with scale 0 falls back to 1 and must not panic.
	opt.Step(0)
}

// Property: softmax output is always a probability distribution.
func TestPropertySoftmaxIsDistribution(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			// Keep logits in a sane range; the policy never produces 1e300.
			if x > 50 {
				x = 50
			}
			if x < -50 {
				x = -50
			}
			logits = append(logits, x)
		}
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// denseLinear is Linear.Forward one output at a time, every input read.
func denseLinear(l *Linear, x []float64) []float64 {
	y := make([]float64, l.Out)
	for o := range y {
		sum := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
	return y
}

// denseForward and denseBackward are Forward and Backward as they were
// before the first layer read only the observation's nonzero entries and
// Linear.Forward computed four outputs per pass: every layer through
// denseLinear and Linear.Backward, input gradient included.
func denseForward(ac *ActorCritic, obs []float64) *ForwardCache {
	cache := &ForwardCache{Obs: obs}
	x := obs
	for _, l := range ac.trunk {
		x = Tanh(denseLinear(l, x))
		cache.PostAct = append(cache.PostAct, x)
	}
	cache.DimLogits = denseLinear(ac.dimHead, x)
	cache.ActLogits = denseLinear(ac.actHead, x)
	cache.Value = denseLinear(ac.valueHead, x)[0]
	return cache
}

func denseBackward(ac *ActorCritic, cache *ForwardCache, dDimLogits, dActLogits []float64, dValue float64) {
	last := cache.PostAct[len(cache.PostAct)-1]
	dTrunk := make([]float64, len(last))
	add := func(dst, src []float64) {
		for i := range src {
			dst[i] += src[i]
		}
	}
	add(dTrunk, ac.dimHead.Backward(last, dDimLogits))
	add(dTrunk, ac.actHead.Backward(last, dActLogits))
	add(dTrunk, ac.valueHead.Backward(last, []float64{dValue}))
	for i := len(ac.trunk) - 1; i >= 0; i-- {
		dPre := TanhBackward(cache.PostAct[i], dTrunk)
		var input []float64
		if i == 0 {
			input = cache.Obs
		} else {
			input = cache.PostAct[i-1]
		}
		dTrunk = ac.trunk[i].Backward(input, dPre)
	}
}

// TestFirstLayerBitExact holds Forward and Backward to the dense reference
// bit for bit: every activation, logit and value, and the gradients
// accumulated over many samples, on binary observations (the NeuroCuts
// encoding), real-valued ones and all-zero ones, with some upstream
// gradients exactly zero, and layer widths that are and are not multiples
// of four.
func TestFirstLayerBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const obsSize = 265
	for _, hidden := range [][]int{{64, 64}, {30, 7}} {
		ac := NewActorCritic(obsSize, 5, 14, hidden, rng)
		for _, l := range ac.Layers() {
			for i := range l.B {
				l.B[i] = rng.NormFloat64() * 0.1
			}
		}
		ref := clone(t, ac)
		observations := [][]float64{make([]float64, obsSize)}
		for s := 0; s < 60; s++ {
			obs := make([]float64, obsSize)
			density := rng.Float64()
			for i := range obs {
				if rng.Float64() >= density {
					continue
				}
				switch s % 3 {
				case 0, 1:
					obs[i] = 1
				default:
					obs[i] = rng.NormFloat64()
				}
			}
			observations = append(observations, obs)
		}
		observations = append(observations, make([]float64, obsSize))

		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("hidden %v: %s[%d] = %v, dense reference %v", hidden, what, i, got[i], want[i])
				}
			}
		}
		ac.ZeroGrad()
		ref.ZeroGrad()
		for _, obs := range observations {
			c, rc := ac.Forward(obs), denseForward(ref, obs)
			for l := range rc.PostAct {
				same("PostAct", c.PostAct[l], rc.PostAct[l])
			}
			same("DimLogits", c.DimLogits, rc.DimLogits)
			same("ActLogits", c.ActLogits, rc.ActLogits)
			same("Value", []float64{c.Value}, []float64{rc.Value})

			dDim := make([]float64, len(c.DimLogits))
			dAct := make([]float64, len(c.ActLogits))
			for i := range dDim {
				dDim[i] = rng.NormFloat64()
			}
			for i := range dAct {
				if rng.Intn(3) > 0 {
					dAct[i] = rng.NormFloat64()
				}
			}
			dValue := rng.NormFloat64()
			ac.Backward(c, dDim, dAct, dValue)
			denseBackward(ref, rc, dDim, dAct, dValue)
		}
		refLayers := ref.Layers()
		for li, l := range ac.Layers() {
			same(fmt.Sprintf("layer %d GradW", li), l.GradW, refLayers[li].GradW)
			same(fmt.Sprintf("layer %d GradB", li), l.GradB, refLayers[li].GradB)
		}
	}
}
