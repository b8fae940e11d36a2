// Package env implements the NeuroCuts reinforcement-learning environment
// (Section 4 of the paper): the compact fixed-length node observation, the
// tuple action space over (dimension, cut/partition action), action masking,
// depth-first tree construction, rollout and depth truncation, and the
// branching-decision-process reward in which each non-terminal node is an
// independent 1-step decision whose return is the negated objective of the
// subtree it roots (Equations 1–5).
package env

import (
	"fmt"
	"math"

	"neurocuts/internal/efficuts"
	"neurocuts/internal/rule"
	"neurocuts/internal/tree"
)

// PartitionMode selects the top-node partitioning allowed to the agent — the
// hyperparameter the paper identifies as the most sensitive one (Table 1).
type PartitionMode int

// Partition modes.
const (
	// PartitionNone disables partition actions entirely (best for
	// time-optimised trees).
	PartitionNone PartitionMode = iota
	// PartitionSimple allows the simple coverage-threshold partition at the
	// root.
	PartitionSimple
	// PartitionEffiCuts allows the EffiCuts separable-category partition at
	// the root.
	PartitionEffiCuts
)

// String names the partition mode.
func (m PartitionMode) String() string {
	switch m {
	case PartitionNone:
		return "none"
	case PartitionSimple:
		return "simple"
	case PartitionEffiCuts:
		return "efficuts"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// RewardScale selects the f(x) applied to time and space before combining
// them (Algorithm 1: f ∈ {x, log x}).
type RewardScale int

// Reward scaling functions.
const (
	// ScaleLinear uses f(x) = x.
	ScaleLinear RewardScale = iota
	// ScaleLog uses f(x) = log(x), which the paper uses whenever c < 1 to
	// make the time and space terms commensurable.
	ScaleLog
)

// Action head layout: the first len(tree.CutSizes) actions are cuts with the
// corresponding fan-out; the last two are the partition actions.
const (
	// NumCutActions is the number of cut fan-outs the agent may choose.
	NumCutActions = 5
	// ActSimplePartition is the action index of the simple partition.
	ActSimplePartition = NumCutActions
	// ActEffiCutsPartition is the action index of the EffiCuts partition.
	ActEffiCutsPartition = NumCutActions + 1
	// NumActions is the size of the action head.
	NumActions = NumCutActions + 2
)

// SimplePartitionThreshold is the coverage threshold used by the simple
// partition action.
const SimplePartitionThreshold = 0.5

// Observation layout (documented sizes; see encode for the encoding):
// 208 bits of binary range bounds, 8-level coverage-band one-hots per
// dimension, a partition-identity one-hot, and the action mask. The paper's
// encoding is 278 bits with a slightly different partition-threshold
// encoding; ours carries the same information with 265 entries.
const (
	rangeBits        = 2 * (32 + 32 + 16 + 16 + 8) // 208
	coverageLevels   = 8
	coverageBits     = rule.NumDims * coverageLevels // 40
	partitionIDSlots = 10
	// ObsSize is the total observation width.
	ObsSize = rangeBits + coverageBits + partitionIDSlots + NumActions
)

// Config parameterises the environment.
type Config struct {
	// TimeSpaceCoeff is c in Equation 5: 1 optimises classification time
	// only, 0 optimises memory only.
	TimeSpaceCoeff float64
	// Scale is the reward scaling function f.
	Scale RewardScale
	// Partition selects the allowed top-node partitioning.
	Partition PartitionMode
	// Binth is the leaf threshold.
	Binth int
	// MaxStepsPerRollout truncates rollouts that grow too many nodes
	// (Table 1 sweeps {1000, 5000, 15000}).
	MaxStepsPerRollout int
	// MaxDepth truncates subtrees deeper than this many levels (Table 1
	// sweeps {100, 500}).
	MaxDepth int
	// TrafficTrace, when non-empty, switches the time term of the objective
	// from the worst-case classification time (Equation 1) to the average
	// lookup time over these packets — the traffic-aware extension proposed
	// in the paper's conclusion. Nodes no trace packet reaches fall back to
	// their worst-case time.
	TrafficTrace []rule.Packet
}

// Env is a NeuroCuts environment bound to one classifier.
type Env struct {
	cfg Config
	set *rule.Set
	// large[i] has bit d set when rule i is large in dimension d (EffiCuts'
	// largeness, the coverage-band signal of the observation).
	large []uint8

	builder *tree.Builder
	// seen is the node Observe last encoded, with its observation and mask,
	// so that the Step that follows records them without encoding again.
	seen     *tree.Node
	seenObs  []float64
	seenMask [NumActions]bool
	steps    int
	// experiences collects the per-node decisions of the current rollout.
	experiences []Experience
	// nodes[i] is the node experiences[i] expanded.
	nodes []*tree.Node
	// truncated records whether the current rollout hit a truncation limit.
	truncated bool
}

// Experience is one 1-step decision of a rollout. Return is filled in by
// FinishRollout once the subtree under the node is complete.
type Experience struct {
	// Obs is the node observation.
	Obs []float64
	// Dim and Act are the indices the agent chose.
	Dim int
	Act int
	// Mask is the action mask that applied.
	Mask [NumActions]bool
	// Return is the 1-step return: the negated scaled objective of the
	// subtree rooted at the expanded node.
	Return float64
	// LogProb and Value are recorded from the policy at selection time and
	// passed through untouched for the PPO update.
	LogProb float64
	Value   float64
}

// New creates an environment for the classifier.
func New(s *rule.Set, cfg Config) *Env {
	if cfg.Binth <= 0 {
		cfg.Binth = tree.DefaultBinth
	}
	if cfg.MaxStepsPerRollout <= 0 {
		cfg.MaxStepsPerRollout = 5000
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 100
	}
	if cfg.TimeSpaceCoeff < 0 {
		cfg.TimeSpaceCoeff = 0
	}
	if cfg.TimeSpaceCoeff > 1 {
		cfg.TimeSpaceCoeff = 1
	}
	e := &Env{cfg: cfg, set: s, large: make([]uint8, s.Len())}
	for i, r := range s.Rules() {
		for d, isLarge := range efficuts.PatternOf(r) {
			if isLarge {
				e.large[i] |= 1 << d
			}
		}
	}
	e.Reset()
	return e
}

// Reset starts a fresh rollout: a new tree containing only the root.
func (e *Env) Reset() {
	e.builder = tree.NewBuilder(e.set, e.cfg.Binth)
	e.steps = 0
	e.experiences = e.experiences[:0]
	e.nodes = e.nodes[:0]
	e.truncated = false
	e.seen = nil
}

// Done reports whether the current rollout has finished (tree complete or
// truncated).
func (e *Env) Done() bool { return e.builder.Done() }

// Truncated reports whether the last rollout hit a truncation limit.
func (e *Env) Truncated() bool { return e.truncated }

// ActionMask returns the mask over the action head for the given node:
// cut actions are always allowed; partition actions are allowed only at the
// root node and only when the configured partition mode enables them (the
// "top-node partitioning" hyperparameter).
func (e *Env) ActionMask(n *tree.Node) [NumActions]bool {
	var mask [NumActions]bool
	for i := 0; i < NumCutActions; i++ {
		mask[i] = true
	}
	if n != nil && n.Depth == 0 {
		switch e.cfg.Partition {
		case PartitionSimple:
			mask[ActSimplePartition] = true
		case PartitionEffiCuts:
			mask[ActEffiCutsPartition] = true
		}
	}
	return mask
}

// Observe returns the observation and action mask of the current node — what
// the policy needs to choose the next Step, which records both as they are.
// There is no current node once the rollout is Done.
func (e *Env) Observe() ([]float64, [NumActions]bool) {
	n := e.builder.Current()
	if e.seen != n {
		e.seenMask = e.ActionMask(n)
		e.seenObs = e.encode(n, e.seenMask)
		e.seen = n
	}
	return e.seenObs, e.seenMask
}

// encode builds the observation of n given its action mask: the
// fixed-length vector the policy consumes.
//
//   - For every dimension, the binary expansion of the node box's lower and
//     upper bounds (32+32, 32+32, 16+16, 16+16, 8+8 bits), normalised to
//     {0,1} values. This is the BinaryString(Range_min)+BinaryString(Range_max)
//     component of Appendix A.
//   - For every dimension, an 8-level one-hot of the fraction of the node's
//     rules that are "large" (cover more than half) in that dimension — the
//     partition-related signal of Appendix A.
//   - A one-hot of the EffiCuts partition identity of the node (slot 0 means
//     "not inside an EffiCuts partition", slots 1-9 identify the category).
//   - The action mask itself, so the policy can see which actions are legal.
func (e *Env) encode(n *tree.Node, mask [NumActions]bool) []float64 {
	obs := make([]float64, ObsSize)
	pos := 0
	for _, d := range rule.Dimensions() {
		bits := int(d.Bits())
		writeBits(obs[pos:pos+bits], n.Box[d].Lo, bits)
		pos += bits
		writeBits(obs[pos:pos+bits], n.Box[d].Hi, bits)
		pos += bits
	}
	// Coverage bands.
	for _, level := range e.coverageBands(n) {
		obs[pos+level] = 1
		pos += coverageLevels
	}
	// EffiCuts partition identity.
	id := e.partitionID(n)
	if id >= partitionIDSlots {
		id = partitionIDSlots - 1
	}
	obs[pos+id] = 1
	pos += partitionIDSlots
	// Action mask.
	for i, ok := range mask {
		if ok {
			obs[pos+i] = 1
		}
	}
	return obs
}

// writeBits writes the big-endian binary expansion of v into dst.
func writeBits(dst []float64, v uint64, bits int) {
	for i := 0; i < bits; i++ {
		if v&(1<<uint(bits-1-i)) != 0 {
			dst[i] = 1
		}
	}
}

// coverageBands buckets, per dimension, the fraction of the node's rules
// that are large in it into one of coverageLevels levels.
func (e *Env) coverageBands(n *tree.Node) [rule.NumDims]int {
	var large, levels [rule.NumDims]int
	if len(n.Rules) == 0 {
		return levels
	}
	for _, ri := range n.Rules {
		for d := range large {
			large[d] += int(e.large[ri] >> d & 1)
		}
	}
	for d := range levels {
		frac := float64(large[d]) / float64(len(n.Rules))
		levels[d] = min(int(frac*float64(coverageLevels)), coverageLevels-1)
	}
	return levels
}

// partitionID returns 1+index of the EffiCuts category the node holds, 1 for
// either side of a simple partition, or 0 when the node is not a partition
// child. Partitions happen at the root only, so the mode says which it was.
func (e *Env) partitionID(n *tree.Node) int {
	if e.cfg.Partition == PartitionEffiCuts {
		return n.PartitionGroup
	}
	return min(n.PartitionGroup, 1)
}

// Step applies the agent's (dimension, action) choice to the current node.
// Invalid choices are repaired rather than rejected, mirroring the paper's
// environment (the action space is fixed; the environment guarantees
// progress): a cut on a dimension that cannot be subdivided is redirected to
// the widest cuttable dimension, and a partition that would be degenerate
// falls back to a binary cut. exp carries the policy outputs to record with
// the experience.
func (e *Env) Step(dim rule.Dimension, act int, exp Experience) error {
	n := e.builder.Current()
	if n == nil {
		return fmt.Errorf("env: rollout already finished")
	}
	if act < 0 || act >= NumActions {
		return fmt.Errorf("env: action %d out of range", act)
	}
	obs, mask := e.Observe()
	if !mask[act] {
		return fmt.Errorf("env: action %d is masked at this node", act)
	}

	exp.Obs = obs
	exp.Dim = int(dim)
	exp.Act = act
	exp.Mask = mask

	applied := false
	switch {
	case act < NumCutActions:
		d := e.repairDimension(n, dim)
		k := tree.CutSizes[act]
		if err := e.builder.ApplyCut(d, k); err != nil {
			return fmt.Errorf("env: cut %s/%d: %w", d, k, err)
		}
		applied = true
	case act == ActSimplePartition:
		d := e.repairDimension(n, dim)
		if err := e.builder.ApplyPartitionByCoverage(d, SimplePartitionThreshold); err == nil {
			applied = true
		}
	case act == ActEffiCutsPartition:
		groups, _ := efficuts.PartitionRules(e.set.Rules(), n.Rules)
		if len(groups) >= 2 {
			labels := make([]string, len(groups))
			for i := range labels {
				labels[i] = fmt.Sprintf("effi-%d", i)
			}
			if err := e.builder.ApplyPartition(groups, labels); err == nil {
				applied = true
			}
		}
	}
	if !applied {
		// Degenerate partition: fall back to a binary cut so the rollout
		// always makes progress.
		d := e.repairDimension(n, dim)
		if err := e.builder.ApplyCut(d, 2); err != nil {
			return fmt.Errorf("env: fallback cut: %w", err)
		}
	}

	e.steps++
	e.experiences = append(e.experiences, exp)
	e.nodes = append(e.nodes, n)
	e.enforceTruncation()
	return nil
}

// repairDimension returns dim when the node's box can be subdivided along
// it; otherwise it returns the cuttable dimension with the largest box.
func (e *Env) repairDimension(n *tree.Node, dim rule.Dimension) rule.Dimension {
	if int(dim) >= 0 && int(dim) < rule.NumDims && n.Box[dim].Size() >= 2 {
		return dim
	}
	best := rule.DimSrcIP
	var bestSize uint64
	for _, d := range rule.Dimensions() {
		if s := n.Box[d].Size(); s > bestSize {
			best, bestSize = d, s
		}
	}
	return best
}

// enforceTruncation applies the rollout-length and depth truncation
// optimisations of Section 5.1: when the step budget is exhausted every
// pending node is accepted as an oversized leaf, and pending nodes deeper
// than MaxDepth are skipped individually.
func (e *Env) enforceTruncation() {
	if e.steps >= e.cfg.MaxStepsPerRollout {
		for !e.builder.Done() {
			e.builder.Skip()
		}
		e.truncated = true
		return
	}
	for {
		n := e.builder.Current()
		if n == nil || n.Depth < e.cfg.MaxDepth {
			return
		}
		e.builder.Skip()
		e.truncated = true
	}
}

// scale applies the configured reward scaling function.
func (e *Env) scale(x float64) float64 {
	if e.cfg.Scale == ScaleLog {
		if x < 1 {
			x = 1
		}
		return math.Log(x)
	}
	return x
}

// NodeReward returns the 1-step return for an expanded node: the negated
// combined objective of the subtree rooted at it (Equation 5 with the
// configured c and scaling). When a traffic trace is configured, traffic
// carries the per-node statistics used for the average-time term.
func (e *Env) NodeReward(n *tree.Node, traffic *tree.TrafficStats) float64 {
	t := e.builder.Tree()
	c := e.cfg.TimeSpaceCoeff
	timeValue := float64(t.Time(n))
	if traffic != nil {
		if avg, ok := traffic.AverageTime(n); ok {
			timeValue = avg
		}
	}
	timeTerm := e.scale(timeValue)
	spaceTerm := e.scale(float64(t.Space(n)))
	return -(c*timeTerm + (1-c)*spaceTerm)
}

// FinishRollout computes every experience's return (which requires the whole
// tree, per the branching-decision-process formulation) and returns the
// experiences together with the finished tree. It must be called after Done
// becomes true.
func (e *Env) FinishRollout() ([]Experience, *tree.Tree, error) {
	if !e.Done() {
		return nil, nil, fmt.Errorf("env: rollout not finished")
	}
	var traffic *tree.TrafficStats
	if len(e.cfg.TrafficTrace) > 0 {
		traffic = e.builder.Tree().ComputeTrafficStats(e.cfg.TrafficTrace)
	}
	for i := range e.experiences {
		e.experiences[i].Return = e.NodeReward(e.nodes[i], traffic)
	}
	out := make([]Experience, len(e.experiences))
	copy(out, e.experiences)
	return out, e.builder.Tree(), nil
}

// TreeObjective evaluates the configured objective for a finished tree
// (lower is better): c*f(time) + (1-c)*f(space), where the time term is the
// average over the traffic trace when one is configured. The trainer uses it
// to keep the best tree seen during training.
func (e *Env) TreeObjective(t *tree.Tree) float64 {
	c := e.cfg.TimeSpaceCoeff
	m := t.ComputeMetrics()
	timeValue := float64(m.ClassificationTime)
	if len(e.cfg.TrafficTrace) > 0 {
		timeValue = t.AverageLookupTime(e.cfg.TrafficTrace)
	}
	return c*e.scale(timeValue) + (1-c)*e.scale(float64(m.MemoryBytes))
}
