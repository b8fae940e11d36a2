// Package core implements NeuroCuts itself: the deep-RL trainer that learns
// to build packet classification decision trees (Algorithm 1 of the paper),
// including parallel rollout collection, best-tree tracking, policy
// checkpointing and tree sampling from the stochastic policy. Classifier
// updates are not handled here: the serving engine takes them into a delta
// overlay and rebuilds when enough accumulate (internal/engine/overlay.go).
package core

import (
	"runtime"

	"neurocuts/internal/env"
	"neurocuts/internal/rl"
	"neurocuts/internal/tree"
)

// Config gathers every NeuroCuts hyperparameter. The defaults of
// DefaultConfig correspond to Table 1 of the paper; Scaled returns a variant
// with budgets reduced for laptop-scale runs (the shape of the results is
// preserved, only the search budget shrinks).
type Config struct {
	// Config holds the environment's hyperparameters (Table 1's c, f,
	// top-node partitioning, rollout and depth truncation, plus Binth and
	// the traffic-aware objective's trace). Each rollout's env.New applies
	// their defaults.
	env.Config

	// MaxTimesteps is the total training budget in environment steps
	// (10,000,000 in Table 1).
	MaxTimesteps int
	// BatchTimesteps is the number of environment steps collected per PPO
	// update (60,000 in Table 1).
	BatchTimesteps int

	// HiddenLayers is the policy network trunk layout ([512, 512] in
	// Table 1; weight sharing between the actor and critic is implicit in
	// the shared trunk).
	HiddenLayers []int
	// PPO holds the PPO hyperparameters (learning rate 5e-5, clip 0.3,
	// entropy coefficient 0.01, ... in Table 1).
	PPO rl.Config

	// Workers is the number of parallel rollout workers (the paper runs four
	// CPU cores per NeuroCuts instance). 0 selects GOMAXPROCS.
	Workers int
	// Seed makes training reproducible.
	Seed int64
}

// DefaultConfig returns the full-scale hyperparameters of Table 1.
func DefaultConfig() Config {
	return Config{
		Config: env.Config{
			TimeSpaceCoeff:     1.0,
			Partition:          env.PartitionNone,
			Scale:              env.ScaleLinear,
			Binth:              tree.DefaultBinth,
			MaxStepsPerRollout: 15000,
			MaxDepth:           100,
		},
		MaxTimesteps:   10_000_000,
		BatchTimesteps: 60_000,
		HiddenLayers:   []int{512, 512},
		PPO:            rl.DefaultConfig(),
		Workers:        4,
		Seed:           1,
	}
}

// Scaled returns a configuration with the same algorithm but budgets and
// network size reduced by roughly the given divisor, for laptop-scale
// experiments and tests. divisor <= 1 returns the Table 1 configuration.
func Scaled(divisor int) Config {
	cfg := DefaultConfig()
	if divisor <= 1 {
		return cfg
	}
	cfg.MaxTimesteps = max(2000, cfg.MaxTimesteps/divisor)
	cfg.BatchTimesteps = max(256, cfg.BatchTimesteps/divisor)
	cfg.MaxStepsPerRollout = max(500, cfg.MaxStepsPerRollout/divisor)
	cfg.HiddenLayers = []int{64, 64}
	cfg.PPO.MinibatchSize = 128
	cfg.PPO.Epochs = 5
	cfg.PPO.LearningRate = 1e-3
	cfg.Workers = min(4, runtime.GOMAXPROCS(0))
	return cfg
}

// withDefaults fills the trainer's own zero fields; the environment's are
// env.New's to default.
func (c Config) withDefaults() Config {
	if c.MaxTimesteps <= 0 {
		c.MaxTimesteps = 100_000
	}
	if c.BatchTimesteps <= 0 {
		c.BatchTimesteps = 4096
	}
	if len(c.HiddenLayers) == 0 {
		c.HiddenLayers = []int{64, 64}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PPO.LearningRate == 0 {
		c.PPO = rl.DefaultConfig()
		c.PPO.MinibatchSize = 256
		c.PPO.Epochs = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
