package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"

	"neurocuts/internal/env"
	"neurocuts/internal/nn"
	"neurocuts/internal/rl"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// Trainer learns a NeuroCuts policy for one classifier and keeps the best
// decision tree found during training.
type Trainer struct {
	cfg Config
	set *rule.Set

	learner *rl.PPO
	rng     *rand.Rand

	mu            sync.Mutex
	bestTree      *tree.Tree
	bestObjective float64
	bestTruncated bool
	bestMetrics   tree.Metrics
	totalSteps    int
	treesBuilt    int
	history       []IterationStats
}

// IterationStats records the outcome of one training iteration (one batch
// collection plus one PPO update).
type IterationStats struct {
	// Iteration is the 1-based iteration index.
	Iteration int
	// Timesteps is the cumulative number of environment steps so far.
	Timesteps int
	// Rollouts is the number of trees built in this iteration.
	Rollouts int
	// MeanReturn is the mean 1-step return of the batch.
	MeanReturn float64
	// BestObjective is the best (lowest) tree objective seen so far.
	BestObjective float64
	// BestTruncated reports whether the rollout that built that best tree hit
	// a truncation limit; BestUnfinishedLeaves and BestMaxLeafRules are the
	// tree's count of leaves still over Binth and the size of its largest
	// leaf. The objective's time term counts any leaf as one visit, so a
	// truncated tree can win on it while lookups scan thousands of rules.
	BestTruncated        bool
	BestUnfinishedLeaves int
	BestMaxLeafRules     int
	// MeanTreeDepth and MeanTreeBytes average the finished trees of this
	// iteration.
	MeanTreeDepth float64
	MeanTreeBytes float64
	// PPO carries the update statistics.
	PPO rl.Stats
}

// NewTrainer creates a trainer for the classifier.
func NewTrainer(s *rule.Set, cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	policy := nn.NewActorCritic(env.ObsSize, rule.NumDims, env.NumActions, cfg.HiddenLayers, rng)
	return &Trainer{
		cfg:           cfg,
		set:           s,
		learner:       rl.New(policy, cfg.PPO),
		rng:           rng,
		bestObjective: math.Inf(1),
	}
}

// Policy returns the underlying actor-critic network.
func (t *Trainer) Policy() *nn.ActorCritic { return t.learner.Policy }

// BestTree returns the best tree found so far and its objective value
// (lower is better), or nil before any rollout completed. The tree may be
// incomplete — its ComputeMetrics().UnfinishedLeaves says so — because the
// objective's time term counts any leaf as one visit.
func (t *Trainer) BestTree() (*tree.Tree, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bestTree, t.bestObjective
}

// History returns the per-iteration statistics collected so far.
func (t *Trainer) History() []IterationStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]IterationStats, len(t.history))
	copy(out, t.history)
	return out
}

// TotalSteps returns the cumulative number of environment steps taken.
func (t *Trainer) TotalSteps() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalSteps
}

// TreesBuilt returns the number of complete rollouts performed.
func (t *Trainer) TreesBuilt() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.treesBuilt
}

// rolloutResult is what one worker returns for one generated tree.
type rolloutResult struct {
	experiences []env.Experience
	objective   float64
	metrics     tree.Metrics
	truncated   bool
	tr          *tree.Tree
}

// runRollout builds one tree with the current (shared, read-only) policy.
// Action sampling uses the worker's private RNG.
func (t *Trainer) runRollout(e *env.Env, rng *rand.Rand, greedy bool) rolloutResult {
	e.Reset()
	for !e.Done() {
		obs, mask := e.Observe()
		d := t.learner.SelectAction(obs, mask[:], rng, greedy)
		exp := env.Experience{LogProb: d.LogProb, Value: d.Value}
		if err := e.Step(rule.Dimension(d.Dim), d.Act, exp); err != nil {
			// Step only fails for masked/out-of-range actions, which
			// SelectAction cannot produce; treat it as fatal.
			panic(fmt.Sprintf("core: rollout step failed: %v", err))
		}
	}
	exps, tr, err := e.FinishRollout()
	if err != nil {
		panic(fmt.Sprintf("core: finishing rollout: %v", err))
	}
	return rolloutResult{
		experiences: exps,
		objective:   e.TreeObjective(tr),
		metrics:     tr.ComputeMetrics(),
		truncated:   e.Truncated(),
		tr:          tr,
	}
}

// collectBatch runs parallel rollouts until at least cfg.BatchTimesteps
// experiences are available and returns them along with iteration-level
// aggregates.
//
// The batch is a function of the policy and the step count alone, whatever
// order the rollouts finish in: job i is seeded from the step count at the
// start of the batch; it is sent only if jobs 0..i-Workers-1 are done and
// still fall short of the batch; and the rollouts are taken into the batch,
// the counters and the best tree in job order.
func (t *Trainer) collectBatch() ([]rl.Sample, IterationStats) {
	base := t.cfg.Seed + int64(t.totalStepsSnapshot())
	workers := t.cfg.Workers
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []*rolloutResult // by job; nil until the job is done
	)
	finished := sync.NewCond(&mu)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := env.New(t.set, t.cfg.envConfig())
			for j := range jobs {
				res := t.runRollout(e, rand.New(rand.NewSource(base+int64(j)*7919)), false)
				mu.Lock()
				results[j] = &res
				finished.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// At most Workers jobs run and one more waits to be taken, so the batch
	// overshoots by Workers rollouts.
	go func() {
		defer close(jobs)
		collected := 0
		for i := 0; ; i++ {
			if j := i - workers - 1; j >= 0 {
				mu.Lock()
				for results[j] == nil {
					finished.Wait()
				}
				collected += len(results[j].experiences)
				mu.Unlock()
				if collected >= t.cfg.BatchTimesteps {
					return
				}
			}
			mu.Lock()
			results = append(results, nil)
			mu.Unlock()
			jobs <- i
		}
	}()
	wg.Wait()

	var (
		samples []rl.Sample
		stats   IterationStats
		sumRet  float64
		nRet    int
	)
	for _, res := range results {
		for i := range res.experiences {
			x := &res.experiences[i]
			samples = append(samples, rl.Sample{
				Obs:     x.Obs,
				Dim:     x.Dim,
				Act:     x.Act,
				ActMask: x.Mask[:],
				Return:  x.Return,
				Value:   x.Value,
				LogProb: x.LogProb,
			})
			sumRet += x.Return
			nRet++
		}
		stats.Rollouts++
		stats.MeanTreeDepth += float64(res.metrics.ClassificationTime)
		stats.MeanTreeBytes += float64(res.metrics.MemoryBytes)
		t.recordTree(*res)
	}

	if stats.Rollouts > 0 {
		stats.MeanTreeDepth /= float64(stats.Rollouts)
		stats.MeanTreeBytes /= float64(stats.Rollouts)
	}
	if nRet > 0 {
		stats.MeanReturn = sumRet / float64(nRet)
	}
	return samples, stats
}

func (t *Trainer) totalStepsSnapshot() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalSteps
}

// recordTree updates the best-tree tracking and rollout counters.
func (t *Trainer) recordTree(res rolloutResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.treesBuilt++
	t.totalSteps += len(res.experiences)
	if res.objective < t.bestObjective {
		t.bestObjective = res.objective
		t.bestTree = res.tr
		t.bestTruncated = res.truncated
		t.bestMetrics = res.metrics
	}
}

// Train runs training until the timestep budget (or iteration cap) is
// exhausted and returns the per-iteration history. The best tree is
// available from BestTree afterwards.
func (t *Trainer) Train() ([]IterationStats, error) {
	iteration := 0
	for {
		t.mu.Lock()
		done := t.totalSteps >= t.cfg.MaxTimesteps ||
			(t.cfg.MaxIterations > 0 && iteration >= t.cfg.MaxIterations)
		t.mu.Unlock()
		if done {
			break
		}
		iteration++

		samples, stats := t.collectBatch()
		ppoStats, err := t.learner.Update(samples, t.rng)
		if err != nil {
			return t.History(), fmt.Errorf("core: PPO update at iteration %d: %w", iteration, err)
		}
		stats.Iteration = iteration
		stats.PPO = ppoStats

		t.mu.Lock()
		stats.Timesteps = t.totalSteps
		stats.BestObjective = t.bestObjective
		stats.BestTruncated = t.bestTruncated
		stats.BestUnfinishedLeaves = t.bestMetrics.UnfinishedLeaves
		stats.BestMaxLeafRules = t.bestMetrics.MaxLeafRules
		t.history = append(t.history, stats)
		t.mu.Unlock()
	}
	if t.bestTree == nil {
		return t.History(), fmt.Errorf("core: training produced no tree (budget too small?)")
	}
	return t.History(), nil
}

// SampleTree draws one tree from the current stochastic policy (used for
// Figure 6's tree-variation visualisation and for evaluation). greedy=true
// takes the mode of the policy instead of sampling.
func (t *Trainer) SampleTree(seed int64, greedy bool) (*tree.Tree, tree.Metrics) {
	e := env.New(t.set, t.cfg.envConfig())
	res := t.runRollout(e, rand.New(rand.NewSource(seed)), greedy)
	return res.tr, res.metrics
}

// SaveCheckpoint writes the policy weights to path.
func (t *Trainer) SaveCheckpoint(path string) error {
	data, err := t.learner.Policy.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: serialising policy: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores policy weights previously written by
// SaveCheckpoint. The checkpoint must have been produced with the same
// network layout.
func (t *Trainer) LoadCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	restored := &nn.ActorCritic{}
	if err := restored.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if restored.ObsSize != env.ObsSize {
		return fmt.Errorf("core: checkpoint observation size %d does not match %d", restored.ObsSize, env.ObsSize)
	}
	t.learner = rl.New(restored, t.cfg.PPO)
	return nil
}
