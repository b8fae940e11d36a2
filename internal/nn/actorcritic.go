package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
)

// ActorCritic is the NeuroCuts policy/value network: a shared tanh MLP trunk
// (weight sharing between the actor and the critic, as in Table 1 of the
// paper) feeding three heads — a categorical distribution over cut/partition
// dimensions, a categorical distribution over the per-dimension actions, and
// a scalar state-value estimate.
type ActorCritic struct {
	// ObsSize is the observation width; NumDims and NumActs are the sizes of
	// the two categorical heads; Hidden lists the trunk's hidden layer
	// widths.
	ObsSize int
	NumDims int
	NumActs int
	Hidden  []int

	trunk     []*Linear
	dimHead   *Linear
	actHead   *Linear
	valueHead *Linear
}

// NewActorCritic builds a network with the given layout. hidden must contain
// at least one layer width.
func NewActorCritic(obsSize, numDims, numActs int, hidden []int, rng *rand.Rand) *ActorCritic {
	if len(hidden) == 0 {
		hidden = []int{128, 128}
	}
	ac := &ActorCritic{
		ObsSize: obsSize,
		NumDims: numDims,
		NumActs: numActs,
		Hidden:  append([]int(nil), hidden...),
	}
	in := obsSize
	for _, h := range hidden {
		ac.trunk = append(ac.trunk, NewLinear(in, h, rng))
		in = h
	}
	ac.dimHead = NewLinear(in, numDims, rng)
	ac.actHead = NewLinear(in, numActs, rng)
	ac.valueHead = NewLinear(in, 1, rng)
	return ac
}

// ForwardCache stores the intermediate activations of one forward pass so
// that Backward can compute exact gradients for that sample.
type ForwardCache struct {
	// Obs is the input observation.
	Obs []float64
	// PostAct holds, per trunk layer, its tanh activation.
	PostAct [][]float64
	// DimLogits, ActLogits and Value are the head outputs.
	DimLogits []float64
	ActLogits []float64
	Value     float64

	// nonzero lists the positions of Obs that are not zero, ascending: the
	// only inputs the first trunk layer reads.
	nonzero []int32
}

// Forward runs the network on one observation and returns the cache holding
// logits, value and the activations needed for Backward.
//
// The first trunk layer reads only the observation's nonzero entries, in
// ascending order (NeuroCuts observations are 0/1, roughly half zeros). A
// skipped term is w·0 = ±0 for a finite weight, and adding ±0 to a sum that
// starts at a bias other than −0 leaves it unchanged, so every output is
// bit-identical to the dense product.
func (ac *ActorCritic) Forward(obs []float64) *ForwardCache {
	if len(obs) != ac.ObsSize {
		panic(fmt.Sprintf("nn: observation size %d, want %d", len(obs), ac.ObsSize))
	}
	cache := &ForwardCache{Obs: obs, nonzero: make([]int32, 0, len(obs))}
	for i, v := range obs {
		if v != 0 {
			cache.nonzero = append(cache.nonzero, int32(i))
		}
	}
	x := Tanh(ac.trunk[0].forwardSparse(obs, cache.nonzero))
	cache.PostAct = append(cache.PostAct, x)
	for _, l := range ac.trunk[1:] {
		x = Tanh(l.Forward(x))
		cache.PostAct = append(cache.PostAct, x)
	}
	cache.DimLogits = ac.dimHead.Forward(x)
	cache.ActLogits = ac.actHead.Forward(x)
	cache.Value = ac.valueHead.Forward(x)[0]
	return cache
}

// Backward accumulates parameter gradients for one sample, given the forward
// cache and the gradients of the loss with respect to the dimension logits,
// action logits and value output.
func (ac *ActorCritic) Backward(cache *ForwardCache, dDimLogits, dActLogits []float64, dValue float64) {
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

	// Backprop through the trunk in reverse. Nothing reads the gradient with
	// respect to the observation, so the first layer only accumulates its
	// parameter gradients, over the inputs Forward read.
	for i := len(ac.trunk) - 1; i > 0; i-- {
		dTrunk = ac.trunk[i].Backward(cache.PostAct[i-1], TanhBackward(cache.PostAct[i], dTrunk))
	}
	ac.trunk[0].backwardSparse(cache.Obs, cache.nonzero, TanhBackward(cache.PostAct[0], dTrunk))
}

// Layers returns every layer of the network, trunk first.
func (ac *ActorCritic) Layers() []*Linear {
	out := append([]*Linear(nil), ac.trunk...)
	return append(out, ac.dimHead, ac.actHead, ac.valueHead)
}

// ZeroGrad clears the accumulated gradients of every layer.
func (ac *ActorCritic) ZeroGrad() {
	for _, l := range ac.Layers() {
		l.ZeroGrad()
	}
}

// snapshot is the gob wire format for checkpoints.
type snapshot struct {
	ObsSize, NumDims, NumActs int
	Hidden                    []int
	Weights                   [][]float64
	Biases                    [][]float64
}

// MarshalBinary serialises the network weights with encoding/gob.
func (ac *ActorCritic) MarshalBinary() ([]byte, error) {
	s := snapshot{ObsSize: ac.ObsSize, NumDims: ac.NumDims, NumActs: ac.NumActs, Hidden: ac.Hidden}
	for _, l := range ac.Layers() {
		s.Weights = append(s.Weights, append([]float64(nil), l.W...))
		s.Biases = append(s.Biases, append([]float64(nil), l.B...))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("nn: encoding network: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a network serialised by MarshalBinary.
func (ac *ActorCritic) UnmarshalBinary(data []byte) error {
	var s snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return fmt.Errorf("nn: decoding network: %w", err)
	}
	fresh := NewActorCritic(s.ObsSize, s.NumDims, s.NumActs, s.Hidden, rand.New(rand.NewSource(0)))
	layers := fresh.Layers()
	if len(layers) != len(s.Weights) {
		return fmt.Errorf("nn: checkpoint has %d layers, network has %d", len(s.Weights), len(layers))
	}
	for i, l := range layers {
		if len(l.W) != len(s.Weights[i]) || len(l.B) != len(s.Biases[i]) {
			return fmt.Errorf("nn: checkpoint layer %d shape mismatch", i)
		}
		copy(l.W, s.Weights[i])
		copy(l.B, s.Biases[i])
	}
	*ac = *fresh
	return nil
}
