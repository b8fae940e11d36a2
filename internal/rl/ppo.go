// Package rl implements Proximal Policy Optimization (Schulman et al., 2017)
// over the actor-critic network in internal/nn, specialised to the NeuroCuts
// branching-decision-process formulation: every sample is an independent
// 1-step decision (Section 5 of the paper) whose "return" is the subtree
// objective computed after the rollout completes, so no temporal-difference
// bootstrapping is needed — the advantage of a sample is simply its return
// minus the value prediction.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"neurocuts/internal/nn"
)

// Sample is one 1-step decision collected from the environment.
type Sample struct {
	// Obs is the node observation the decision was taken from.
	Obs []float64
	// Dim and Act are the sampled indices of the two categorical heads.
	Dim int
	Act int
	// ActMask is the action-head mask in force when the action was sampled
	// (nil means every action was allowed).
	ActMask []bool
	// Return is the reward-to-go of the decision: the negated subtree
	// objective computed once the subtree under the node was finished.
	Return float64
	// Value is the critic's prediction at collection time.
	Value float64
	// LogProb is the joint log-probability (dimension + action) of the
	// sampled action under the collection-time policy.
	LogProb float64
}

// Config holds the PPO hyperparameters (Table 1 of the paper).
type Config struct {
	// LearningRate for Adam.
	LearningRate float64
	// ClipParam is the PPO surrogate clipping range.
	ClipParam float64
	// VFClipParam clips the value-function update around the old value.
	VFClipParam float64
	// EntropyCoeff scales the entropy bonus.
	EntropyCoeff float64
	// ValueCoeff scales the value-function loss.
	ValueCoeff float64
	// KLTarget stops the SGD epochs early when the mean KL divergence from
	// the collection-time policy exceeds 1.5x this target.
	KLTarget float64
	// Epochs is the number of SGD passes over each batch.
	Epochs int
	// MinibatchSize is the SGD minibatch size.
	MinibatchSize int
	// MaxGradNorm clips the global gradient norm (0 disables clipping).
	MaxGradNorm float64
	// NormalizeAdvantages standardises advantages per batch.
	NormalizeAdvantages bool
}

// DefaultConfig returns the PPO hyperparameters from Table 1 of the paper.
func DefaultConfig() Config {
	return Config{
		LearningRate:        5e-5,
		ClipParam:           0.3,
		VFClipParam:         10.0,
		EntropyCoeff:        0.01,
		ValueCoeff:          0.5,
		KLTarget:            0.01,
		Epochs:              30,
		MinibatchSize:       1000,
		MaxGradNorm:         10,
		NormalizeAdvantages: true,
	}
}

// PPO bundles a policy network with its optimizer and update rule.
type PPO struct {
	// Policy is the actor-critic network being trained.
	Policy *nn.ActorCritic
	cfg    Config
	opt    *nn.Adam
}

// New creates a PPO learner for the policy.
func New(policy *nn.ActorCritic, cfg Config) *PPO {
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = DefaultConfig().LearningRate
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.MinibatchSize <= 0 {
		cfg.MinibatchSize = 64
	}
	if cfg.ValueCoeff <= 0 {
		cfg.ValueCoeff = 0.5
	}
	opt := nn.NewAdam(policy.Layers(), cfg.LearningRate)
	opt.MaxGradNorm = cfg.MaxGradNorm
	return &PPO{Policy: policy, cfg: cfg, opt: opt}
}

// Decision is the result of sampling the policy at one observation.
type Decision struct {
	// Dim and Act are the sampled head indices.
	Dim int
	Act int
	// LogProb is the joint log-probability of the sample.
	LogProb float64
	// Value is the critic's estimate for the observation.
	Value float64
}

// SelectAction samples a (dimension, action) pair from the current policy
// for the observation, honouring the action mask. Pass greedy=true to take
// the mode instead of sampling (used at evaluation time).
func (p *PPO) SelectAction(obs []float64, actMask []bool, rng *rand.Rand, greedy bool) Decision {
	cache := p.Policy.Forward(obs)
	dimProbs := nn.Softmax(cache.DimLogits)
	actProbs := nn.MaskedSoftmax(cache.ActLogits, actMask)
	var dim, act int
	if greedy {
		dim = nn.Argmax(dimProbs)
		act = nn.Argmax(actProbs)
	} else {
		dim = nn.SampleCategorical(dimProbs, rng)
		act = nn.SampleCategorical(actProbs, rng)
	}
	return Decision{
		Dim:     dim,
		Act:     act,
		LogProb: nn.LogProb(dimProbs, dim) + nn.LogProb(actProbs, act),
		Value:   cache.Value,
	}
}

// Stats summarises one Update call.
type Stats struct {
	// PolicyLoss, ValueLoss and Entropy are batch means from the last epoch.
	PolicyLoss float64
	ValueLoss  float64
	Entropy    float64
	// KL is the estimated mean KL divergence from the collection policy
	// after the final epoch.
	KL float64
	// ClipFraction is the fraction of samples whose ratio was clipped.
	ClipFraction float64
	// EpochsRun counts the SGD epochs actually executed (early KL stop).
	EpochsRun int
	// MeanReturn and MeanAdvantage describe the batch.
	MeanReturn    float64
	MeanAdvantage float64
}

// Update performs the PPO update on a batch of samples and returns training
// statistics.
func (p *PPO) Update(samples []Sample, rng *rand.Rand) (Stats, error) {
	if len(samples) == 0 {
		return Stats{}, fmt.Errorf("rl: empty sample batch")
	}
	// Advantages: return minus collection-time value estimate.
	adv := make([]float64, len(samples))
	meanRet := 0.0
	for i, s := range samples {
		adv[i] = s.Return - s.Value
		meanRet += s.Return
	}
	meanRet /= float64(len(samples))
	meanAdvRaw := mean(adv)
	if p.cfg.NormalizeAdvantages {
		std := stddev(adv)
		if std < 1e-8 {
			std = 1e-8
		}
		m := meanAdvRaw
		for i := range adv {
			adv[i] = (adv[i] - m) / std
		}
	}

	var stats Stats
	stats.MeanReturn = meanRet
	stats.MeanAdvantage = meanAdvRaw

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}

	for epoch := 0; epoch < p.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochPolicyLoss, epochValueLoss, epochEntropy, epochKL float64
		var clipped, count int

		for start := 0; start < len(idx); start += p.cfg.MinibatchSize {
			end := start + p.cfg.MinibatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			p.Policy.ZeroGrad()
			for _, si := range batch {
				s := samples[si]
				a := adv[si]
				cache := p.Policy.Forward(s.Obs)
				dimProbs := nn.Softmax(cache.DimLogits)
				actProbs := nn.MaskedSoftmax(cache.ActLogits, s.ActMask)
				newLogProb := nn.LogProb(dimProbs, s.Dim) + nn.LogProb(actProbs, s.Act)
				ratio := math.Exp(newLogProb - s.LogProb)

				// Clipped surrogate objective.
				unclipped := ratio * a
				clippedRatio := clamp(ratio, 1-p.cfg.ClipParam, 1+p.cfg.ClipParam)
				clippedObj := clippedRatio * a
				surrogate := math.Min(unclipped, clippedObj)
				epochPolicyLoss += -surrogate
				useUnclipped := unclipped <= clippedObj
				if !useUnclipped {
					clipped++
				}

				// Value loss with clipping around the old value estimate.
				vErr := cache.Value - s.Return
				vClipped := s.Value + clamp(cache.Value-s.Value, -p.cfg.VFClipParam, p.cfg.VFClipParam)
				vErrClipped := vClipped - s.Return
				var dValue float64
				if vErr*vErr >= vErrClipped*vErrClipped {
					epochValueLoss += 0.5 * vErr * vErr
					dValue = p.cfg.ValueCoeff * vErr
				} else {
					epochValueLoss += 0.5 * vErrClipped * vErrClipped
					if math.Abs(cache.Value-s.Value) < p.cfg.VFClipParam {
						dValue = p.cfg.ValueCoeff * vErrClipped
					}
				}

				ent := nn.Entropy(dimProbs) + nn.Entropy(actProbs)
				epochEntropy += ent
				epochKL += s.LogProb - newLogProb
				count++

				// Gradient of the total loss
				//   L = -surrogate - entCoeff*entropy + valueCoeff*valueLoss
				// with respect to the two logit vectors and the value output.
				dDim := make([]float64, len(cache.DimLogits))
				dAct := make([]float64, len(cache.ActLogits))
				if useUnclipped {
					// d(-ratio*A)/dlogits = -A * ratio * dlogp/dlogits
					coef := -a * ratio
					for i, g := range nn.LogProbGrad(dimProbs, s.Dim, nil) {
						dDim[i] += coef * g
					}
					for i, g := range nn.LogProbGrad(actProbs, s.Act, s.ActMask) {
						dAct[i] += coef * g
					}
				}
				if p.cfg.EntropyCoeff != 0 {
					for i, g := range nn.EntropyGrad(dimProbs, nil) {
						dDim[i] -= p.cfg.EntropyCoeff * g
					}
					for i, g := range nn.EntropyGrad(actProbs, s.ActMask) {
						dAct[i] -= p.cfg.EntropyCoeff * g
					}
				}
				p.Policy.Backward(cache, dDim, dAct, dValue)
			}
			p.opt.Step(float64(len(batch)))
		}

		stats.PolicyLoss = epochPolicyLoss / float64(count)
		stats.ValueLoss = epochValueLoss / float64(count)
		stats.Entropy = epochEntropy / float64(count)
		stats.KL = epochKL / float64(count)
		stats.ClipFraction = float64(clipped) / float64(count)
		stats.EpochsRun = epoch + 1

		if p.cfg.KLTarget > 0 && stats.KL > 1.5*p.cfg.KLTarget {
			break
		}
	}
	return stats, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
