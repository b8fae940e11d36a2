package rl

import (
	"math"
	"math/rand"
	"testing"

	"neurocuts/internal/nn"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LearningRate != 5e-5 {
		t.Errorf("learning rate %v", cfg.LearningRate)
	}
	if cfg.ClipParam != 0.3 || cfg.VFClipParam != 10.0 {
		t.Errorf("clip params %v/%v", cfg.ClipParam, cfg.VFClipParam)
	}
	if cfg.EntropyCoeff != 0.01 || cfg.KLTarget != 0.01 {
		t.Errorf("entropy/KL %v/%v", cfg.EntropyCoeff, cfg.KLTarget)
	}
	if cfg.Epochs != 30 || cfg.MinibatchSize != 1000 {
		t.Errorf("epochs/minibatch %d/%d", cfg.Epochs, cfg.MinibatchSize)
	}
}

func TestSelectActionRespectsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	policy := nn.NewActorCritic(4, 3, 5, []int{8}, rng)
	p := New(policy, DefaultConfig())
	obs := []float64{1, 0, 0, 0}
	mask := []bool{true, false, true, false, false}
	for i := 0; i < 200; i++ {
		d := p.SelectAction(obs, mask, rng, false)
		if d.Act == 1 || d.Act == 3 || d.Act == 4 {
			t.Fatalf("masked action %d selected", d.Act)
		}
		if d.Dim < 0 || d.Dim >= 3 {
			t.Fatalf("dimension %d out of range", d.Dim)
		}
		if math.IsNaN(d.LogProb) || math.IsInf(d.LogProb, 0) {
			t.Fatal("bad log prob")
		}
	}
	greedy := p.SelectAction(obs, mask, rng, true)
	again := p.SelectAction(obs, mask, rng, true)
	if greedy.Dim != again.Dim || greedy.Act != again.Act {
		t.Error("greedy selection should be deterministic")
	}
}

func TestUpdateEmptyBatchFails(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	policy := nn.NewActorCritic(2, 2, 2, []int{4}, rng)
	p := New(policy, DefaultConfig())
	if _, err := p.Update(nil, rng); err == nil {
		t.Error("empty batch should fail")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	policy := nn.NewActorCritic(2, 2, 2, []int{4}, rng)
	p := New(policy, Config{})
	cfg := p.cfg
	if cfg.LearningRate <= 0 || cfg.Epochs <= 0 || cfg.MinibatchSize <= 0 || cfg.ValueCoeff <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// banditEnv is a deterministic contextual bandit: 4 contexts (one-hot
// observations), 3 actions, reward = rewardTable[context][action]. It has no
// dimension structure, so the "dim" head is irrelevant and always legal.
var rewardTable = [4][3]float64{
	{1.0, 0.0, 0.2},
	{0.0, 1.0, 0.1},
	{0.3, 0.2, 1.0},
	{0.0, 0.9, 0.1},
}

func banditObs(ctx int) []float64 {
	obs := make([]float64, 4)
	obs[ctx] = 1
	return obs
}

// collectBandit gathers one batch of bandit interactions under the current
// policy.
func collectBandit(p *PPO, n int, rng *rand.Rand) []Sample {
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		ctx := rng.Intn(4)
		obs := banditObs(ctx)
		d := p.SelectAction(obs, nil, rng, false)
		samples = append(samples, Sample{
			Obs:     obs,
			Dim:     d.Dim,
			Act:     d.Act,
			Return:  rewardTable[ctx][d.Act],
			Value:   d.Value,
			LogProb: d.LogProb,
		})
	}
	return samples
}

// TestPPOLearnsContextualBandit is the end-to-end learning test for the RL
// stack: after training, the greedy policy must pick the best action in
// every context, and the critic must predict values close to the achieved
// rewards.
func TestPPOLearnsContextualBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	policy := nn.NewActorCritic(4, 2, 3, []int{32, 32}, rng)
	cfg := Config{
		LearningRate:        3e-3,
		ClipParam:           0.2,
		VFClipParam:         10,
		EntropyCoeff:        0.003,
		ValueCoeff:          0.5,
		KLTarget:            0.05,
		Epochs:              6,
		MinibatchSize:       64,
		MaxGradNorm:         5,
		NormalizeAdvantages: true,
	}
	p := New(policy, cfg)

	var lastStats Stats
	for iter := 0; iter < 60; iter++ {
		samples := collectBandit(p, 256, rng)
		st, err := p.Update(samples, rng)
		if err != nil {
			t.Fatal(err)
		}
		lastStats = st
	}
	if lastStats.EpochsRun < 1 {
		t.Error("no epochs ran")
	}
	// Greedy policy must be optimal in every context.
	for ctx := 0; ctx < 4; ctx++ {
		d := p.SelectAction(banditObs(ctx), nil, rng, true)
		best := 0
		for a := 1; a < 3; a++ {
			if rewardTable[ctx][a] > rewardTable[ctx][best] {
				best = a
			}
		}
		if d.Act != best {
			t.Errorf("context %d: greedy action %d, want %d", ctx, d.Act, best)
		}
		// The critic should be within 0.3 of the optimal reward by now.
		if math.Abs(d.Value-rewardTable[ctx][best]) > 0.35 {
			t.Errorf("context %d: value %v far from %v", ctx, d.Value, rewardTable[ctx][best])
		}
	}
}

// TestPPOImprovesMeanReturn checks the learning direction without requiring
// full convergence: mean return over the last few batches must exceed the
// first batches (random policy baseline is ~0.45).
func TestPPOImprovesMeanReturn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	policy := nn.NewActorCritic(4, 2, 3, []int{16}, rng)
	cfg := DefaultConfig()
	cfg.LearningRate = 3e-3
	cfg.Epochs = 4
	cfg.MinibatchSize = 64
	p := New(policy, cfg)

	var early, late float64
	for iter := 0; iter < 40; iter++ {
		samples := collectBandit(p, 200, rng)
		st, err := p.Update(samples, rng)
		if err != nil {
			t.Fatal(err)
		}
		if iter < 5 {
			early += st.MeanReturn
		}
		if iter >= 35 {
			late += st.MeanReturn
		}
	}
	early /= 5
	late /= 5
	if late <= early {
		t.Errorf("mean return did not improve: early %v late %v", early, late)
	}
}

func TestUpdateStatsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	policy := nn.NewActorCritic(4, 2, 3, []int{8}, rng)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	cfg.MinibatchSize = 32
	p := New(policy, cfg)
	samples := collectBandit(p, 128, rng)
	st, err := p.Update(samples, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entropy <= 0 {
		t.Errorf("entropy %v should be positive for a fresh policy", st.Entropy)
	}
	if st.ClipFraction < 0 || st.ClipFraction > 1 {
		t.Errorf("clip fraction %v", st.ClipFraction)
	}
	if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) || math.IsNaN(st.KL) {
		t.Error("NaN stats")
	}
	if st.MeanReturn <= 0 {
		t.Errorf("mean return %v", st.MeanReturn)
	}
}

func TestAdvantageNormalizationToggle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	policy := nn.NewActorCritic(4, 2, 3, []int{8}, rng)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.MinibatchSize = 16
	cfg.NormalizeAdvantages = false
	p := New(policy, cfg)
	samples := collectBandit(p, 64, rng)
	if _, err := p.Update(samples, rng); err != nil {
		t.Fatal(err)
	}
	// Identical returns (zero advantage variance) must not divide by zero
	// when normalisation is on.
	cfg.NormalizeAdvantages = true
	p2 := New(nn.NewActorCritic(4, 2, 3, []int{8}, rng), cfg)
	same := collectBandit(p2, 32, rng)
	for i := range same {
		same[i].Return = 1
		same[i].Value = 0.5
	}
	if _, err := p2.Update(same, rng); err != nil {
		t.Fatal(err)
	}
}
