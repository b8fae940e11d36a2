package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// plan is the shape of one workload run.
type plan struct {
	warm    time.Duration // closed-loop warm-up before the first window
	windows int
	window  time.Duration
	quietAt float64 // which window is reported (see quiet)
	// traceBatches is the least number of batches each layer replays in the
	// traced phase, and traceFor the least time the replay takes; 0 batches
	// turns the phase off.
	traceBatches int
	traceFor     time.Duration
	// Set-up runs setupReps times, and on until it has taken a second or
	// run maxSetupReps times; setup_s is the median.
	setupReps, maxSetupReps int
}

// planFor splits a measuring budget of `seconds` into the workload's
// windows, after a warm-up of a tenth of it. paper_grid's cells share the
// budget.
func planFor(w *workload, seconds float64, smoke, trace bool) plan {
	p := plan{windows: w.windows, quietAt: w.quietAt, traceBatches: 2048, setupReps: w.setupReps, maxSetupReps: 25}
	if smoke {
		p.windows, seconds = 1, 0.2
		p.traceBatches /= 8
		p.setupReps, p.maxSetupReps = 1, 1
	}
	if w.name == "paper_grid" {
		p.traceBatches /= 8
		seconds /= float64(len(gridFamilies) * len(gridBackends))
	}
	if p.quietAt == 0 {
		p.quietAt = quietEnd
	}
	p.window = time.Duration(seconds / float64(p.windows) * float64(time.Second))
	p.warm = time.Duration(seconds / 10 * float64(time.Second))
	p.traceFor = 2 * p.warm
	if !trace {
		p.traceBatches = 0
	}
	return p
}

// span is one traced call into a layer. Times are nanoseconds since the
// workload's replay began; Parent indexes the span of the layer above for
// the same batch and round (-1 for the top of the chain and for stages).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

// cellRow is one cell's line in the result file: all of paper_grid's table,
// one row for every other workload.
type cellRow struct {
	Family       string  `json:"family"`
	Backend      string  `json:"backend"`
	Rules        int     `json:"rules"`
	SetupS       float64 `json:"setup_s"`
	PPS          float64 `json:"pps"`
	BatchP50Us   float64 `json:"batch_p50_us"`
	BatchP99Us   float64 `json:"batch_p99_us"`
	WorstVisits  int     `json:"worst_visits"`
	BytesPerRule float64 `json:"bytes_per_rule"`
	// Batches is the calls timed over all windows, the sample batch_p99_us
	// rests on; MinBatches the fewest in one window, the sample under a
	// window's p50.
	Batches    int `json:"batches"`
	MinBatches int `json:"min_batches_per_window"`
}

// result is one workload run.
type result struct {
	Name      string    `json:"name"`
	Why       string    `json:"why"`
	EndToEnd  metrics   `json:"end_to_end"`
	PerLayer  metrics   `json:"per_layer,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Windows   int       `json:"windows"`
	WindowS   float64   `json:"window_s"`
	Updates   int       `json:"update_samples,omitempty"`
	Cells     []cellRow `json:"cells"`
	spans     []span
}

// liveHeap is the heap in use after a full collection. Two cycles, because
// the first only queues finalizers and frees what the engine's closed
// goroutines still referenced.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runWorkload generates the workload's inputs from seed, sets the system up
// (timed), measures it untraced, replays it layer by layer when the plan
// asks, and checks every answer on the way.
func runWorkload(w *workload, sc scale, seed int64, p plan, tmp string) (*result, error) {
	cells, err := w.cells(sc, seed, tmp)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	res := &result{Name: w.name, Why: w.why, EndToEnd: metrics{}, PerLayer: metrics{},
		Windows: p.windows, WindowS: p.window.Seconds()}
	// A layer the workload's path does not touch reports 0, not nothing.
	for _, d := range perLayerDefs() {
		res.PerLayer[d.Name] = 0
	}

	// Set-up: build + compile + listen/attach + one warm pass of the trace,
	// per cell. Repeated, with the earlier builds closed, so setup_s is a
	// median; the heap is measured around the build that is kept.
	rigs := make([]*rig, len(cells))
	closeRigs := func() {
		for i, r := range rigs {
			if r != nil {
				r.close()
				rigs[i] = nil
			}
		}
	}
	defer closeRigs()
	cellSetup := make([][]float64, len(cells))
	var totals []float64
	var heap0 uint64
	// Short set-ups repeat until they have a second's worth of samples.
	began := time.Now()
	for rep := 0; rep < p.setupReps || (rep < p.maxSetupReps && time.Since(began) < time.Second); rep++ {
		closeRigs()
		heap0 = liveHeap()
		total := 0.0
		for i, c := range cells {
			t := time.Now()
			r, err := c.build()
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			rigs[i] = r
			for b := 0; b < c.in.batches(); b++ {
				if err := r.step(b); err != nil {
					return nil, fmt.Errorf("%s: warm pass: %w", w.name, err)
				}
			}
			s := time.Since(t).Seconds()
			cellSetup[i] = append(cellSetup[i], s)
			total += s
		}
		totals = append(totals, total)
	}
	res.EndToEnd["setup_s"] = median(totals)
	res.EndToEnd["heap_mb"] = (float64(liveHeap()) - float64(heap0)) / 1e6

	var pps, p50, p99, visits, bpr []float64
	var pkts int
	var allocs uint64
	layerVals := map[string][]float64{}
	for i, c := range cells {
		r := rigs[i]
		cr, err := runCell(c, r, p, tmp, len(res.spans))
		if err != nil {
			return nil, fmt.Errorf("%s: %s/%s: %w", w.name, c.family, c.backend, err)
		}
		res.Attempted += cr.attempted
		res.Failed += cr.failed
		res.Updates += r.updateSamples
		res.spans = append(res.spans, cr.spans...)
		pkts += cr.pkts
		allocs += cr.mallocs

		em := r.built
		row := cellRow{Family: c.family, Backend: c.backend, Rules: c.in.set.Len(), SetupS: median(cellSetup[i]),
			PPS: cr.pps, BatchP50Us: cr.p50, BatchP99Us: cr.p99, WorstVisits: em.LookupCost,
			BytesPerRule: float64(em.CompiledBytes) / float64(c.in.set.Len()),
			Batches:      cr.pkts / batch, MinBatches: cr.minBatches}
		res.Cells = append(res.Cells, row)
		pps, p50, p99 = append(pps, row.PPS), append(p50, row.BatchP50Us), append(p99, row.BatchP99Us)
		visits, bpr = append(visits, float64(row.WorstVisits)), append(bpr, row.BytesPerRule)
		for k, v := range cr.layer {
			layerVals[k] = append(layerVals[k], v)
		}
	}

	// A workload is its cells' geometric mean: one slow cell cannot own the
	// figure, and a single cell reports itself.
	res.EndToEnd["pps"] = geomean(pps)
	res.PerLayer["batch_p50_us"] = geomean(p50)
	res.PerLayer["batch_p99_us"] = geomean(p99)
	res.EndToEnd["worst_visits"] = geomean(visits)
	res.EndToEnd["bytes_per_rule"] = geomean(bpr)
	res.PerLayer["allocs_per_pkt"] = float64(allocs) / float64(max(pkts, 1))
	res.PerLayer["failed_share"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	for k, vs := range layerVals {
		switch {
		case k == "backend.build_s" || k == "backend.neurocuts_build_s":
			// Build time is what the whole table costs: the sum over cells.
			for _, v := range vs {
				res.PerLayer[k] += v
			}
		case strings.HasPrefix(k, "bench."):
			// Signed percentages have no geometric mean.
			for _, v := range vs {
				res.PerLayer[k] += v / float64(len(vs))
			}
		default:
			// Geometric like the end-to-end figures; arithmetic where a cell
			// reports zero (a self time clamped at nothing).
			if res.PerLayer[k] = geomean(vs); res.PerLayer[k] == 0 {
				for _, v := range vs {
					res.PerLayer[k] += v / float64(len(vs))
				}
			}
		}
	}
	if w.name == "paper_grid" {
		res.PerLayer["nc_time_ratio"], res.PerLayer["nc_space_ratio"] = neurocutsRatios(res.Cells)
	}
	return res, nil
}

// neurocutsRatios is the paper's comparison on the grid: per family, the
// NeuroCuts tree against the best hand-tuned baseline, on worst-case visits
// and on bytes per rule; the median over families of each.
func neurocutsRatios(rows []cellRow) (timeRatio, spaceRatio float64) {
	type best struct{ visits, bpr, ncVisits, ncBpr float64 }
	fams := map[string]*best{}
	for _, r := range rows {
		b := fams[r.Family]
		if b == nil {
			b = &best{}
			fams[r.Family] = b
		}
		if r.Backend == "neurocuts" {
			b.ncVisits, b.ncBpr = float64(r.WorstVisits), r.BytesPerRule
			continue
		}
		if b.visits == 0 || float64(r.WorstVisits) < b.visits {
			b.visits = float64(r.WorstVisits)
		}
		if b.bpr == 0 || r.BytesPerRule < b.bpr {
			b.bpr = r.BytesPerRule
		}
	}
	var ts, ss []float64
	for _, b := range fams {
		if b.visits > 0 && b.bpr > 0 && b.ncVisits > 0 {
			ts, ss = append(ts, b.ncVisits/b.visits), append(ss, b.ncBpr/b.bpr)
		}
	}
	return median(ts), median(ss)
}

// cellResult is one cell's measurement.
type cellResult struct {
	pps, p50, p99     float64
	minBatches        int
	pkts              int
	mallocs           uint64
	attempted, failed int
	layer             metrics
	spans             []span
}

func runCell(c *cell, r *rig, p plan, tmp string, spanBase int) (*cellResult, error) {
	cr := &cellResult{layer: metrics{}}
	nb := c.in.batches()
	if r.start != nil {
		r.start()
	}
	stopped := false
	stop := func() {
		if r.stop != nil && !stopped {
			stopped = true
			r.stop()
		}
	}
	defer stop()

	// loop drives the closed loop for d from the top of the trace, timing
	// only the step and checking its answers outside the timed region.
	loop := func(d time.Duration, w *window) error {
		t0 := time.Now()
		for b := 0; time.Since(t0) < d; b = (b + 1) % nb {
			t := time.Now()
			err := r.step(b)
			dt := time.Since(t)
			cr.attempted += batch
			if err != nil {
				// A transport that fails once is unlikely to recover;
				// stop rather than spin on the error.
				cr.failed += batch
				return err
			}
			cr.failed += r.verify(b)
			if w != nil {
				w.pkts += batch
				w.busy += dt
				w.batchUs = append(w.batchUs, float64(dt.Nanoseconds())/1e3)
			}
		}
		return nil
	}

	var warm window
	if err := loop(p.warm, &warm); err != nil {
		return nil, err
	}
	expect := int(float64(len(warm.batchUs)) * float64(p.window) / float64(max(p.warm, 1)))
	ws := make([]window, p.windows)
	for i := range ws {
		ws[i].batchUs = make([]float64, 0, expect*3/2+64)
	}
	if r.begin != nil {
		r.begin()
	}
	m0 := mallocs()
	t0 := time.Now()
	for i := range ws {
		if err := loop(p.window, &ws[i]); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	cr.mallocs = mallocs() - m0
	if r.end != nil {
		r.end(cr.layer, t0, t1)
	}

	// The quiet end of the windows for pps and p50 (see quiet). The tail is
	// the p99 of every call in every window, so that it has the samples
	// beyond it that a 0.1 s window lacks.
	cr.pps = quiet(perWindow(ws, (*window).pps), true, p.quietAt)
	cr.p50 = quiet(perWindow(ws, func(w *window) float64 { return w.quantileUs(0.50) }), false, p.quietAt)
	cr.minBatches = len(ws[0].batchUs)
	var all []float64
	for i := range ws {
		cr.pkts += ws[i].pkts
		cr.minBatches = min(cr.minBatches, len(ws[i].batchUs))
		all = append(all, ws[i].batchUs...)
	}
	sort.Float64s(all)
	cr.p99 = percentile(all, 0.99)

	if p.traceBatches > 0 {
		typical := median(perWindow(ws, (*window).pps))
		if err := traceCell(c, r, p, tmp, spanBase, 1e9/typical, cr); err != nil {
			return nil, err
		}
	}
	stop()
	if r.final != nil {
		a, f := r.final(cr.layer, t0, t1)
		cr.attempted += a
		cr.failed += f
	}
	return cr, nil
}

// traceChunk is how many batches a layer replays before the next layer
// takes its turn on the same batches.
const traceChunk = 256

// traceCell is the traced phase on one cell: the same built objects, with
// the spans recorded from out here, around the calls into each layer. The
// trace is replayed in chunks; each round takes the next chunk through every
// layer in turn, bottom-up, so a batch's spans for all layers lie
// milliseconds apart and see the same background load. A layer's time is
// its median round; untracedNs, the median window of the phase before, is
// what the layers' self times should add up to.
func traceCell(c *cell, r *rig, p plan, tmp string, spanBase int, untracedNs float64, cr *cellResult) error {
	m := cr.layer
	cc, err := compileCell(c, r, m)
	if err != nil {
		return err
	}
	a, f := scalarLookups(r, cc, m)
	cr.attempted, cr.failed = cr.attempted+a, cr.failed+f
	layers, err := r.layers(cc)
	if err != nil {
		return err
	}

	nb := c.in.batches()
	chunk := traceChunk
	if nb%chunk != 0 {
		chunk = nb // stages read the trace in order, so chunks must tile it
	}
	minRounds := max(1, p.traceBatches/chunk)
	L := len(layers)
	spans := make([]span, 0, 4*minRounds*L*chunk)
	roundNs := make([][]float64, L) // per layer, per round: ns/packet
	allocs := make([]uint64, L)
	hits, misses := make([]uint64, L), make([]uint64, L)
	// parent[l] is the chain layer above l, the span's cause; -1 at the top.
	parent := make([]int, L)
	for l, above := L-1, -1; l >= 0; l-- {
		parent[l] = -1
		if !layers[l].stage {
			parent[l], above = above, l
		}
	}
	// The replay runs for at least minRounds and at least p.traceFor, so that
	// fast paths too get a share of quiet moments to report.
	epoch := time.Now()
	rounds := 0
	for ; rounds < minRounds || time.Since(epoch) < p.traceFor; rounds++ {
		first := rounds * chunk % nb
		for l, ly := range layers {
			var h0, mi0 uint64
			if ly.cache != nil {
				h0, mi0 = ly.cache()
			}
			a0 := mallocs()
			var busy time.Duration
			for b := first; b < first+chunk; b++ {
				t := time.Now()
				err := ly.call(b)
				end := time.Now()
				cr.attempted += batch
				if err != nil {
					cr.failed += batch
					return fmt.Errorf("traced %s: %w", ly.name, err)
				}
				cr.failed += ly.check(b)
				sp := span{Name: ly.name, Start: int64(t.Sub(epoch)), End: int64(end.Sub(epoch)), Parent: -1, Batch: b}
				if parent[l] >= 0 {
					sp.Parent = spanBase + (rounds*L+parent[l])*chunk + b - first
				}
				spans = append(spans, sp)
				busy += end.Sub(t)
			}
			roundNs[l] = append(roundNs[l], float64(busy.Nanoseconds())/float64(chunk*batch))
			allocs[l] += mallocs() - a0
			if ly.cache != nil {
				h1, mi1 := ly.cache()
				hits[l], misses[l] = hits[l]+h1-h0, misses[l]+mi1-mi0
			}
		}
	}
	cr.spans = spans

	calls := float64(rounds * chunk)
	spanNs, share, stage := make([]float64, L), make([]float64, L), make([]bool, L)
	for l, ly := range layers {
		// The typical round, not the quiet end: how fast the best short
		// slices are depends on how short they are, and a round is not a
		// window.
		spanNs[l] = median(roundNs[l])
		share[l], stage[l] = 1, ly.stage
		if total := hits[l] + misses[l]; total > 0 {
			share[l] = float64(misses[l]) / float64(total)
		}
		m[ly.spanMetric] = spanNs[l]
		switch ly.name {
		case "engine":
			m["engine.allocs_per_batch"] = float64(allocs[l]) / calls
		case "iface.shm":
			m["iface.allocs_per_batch"] = float64(allocs[l]) / calls
		}
	}
	self := selfTimes(spanNs, share, stage)
	sum, top := 0.0, 0.0
	for l, ly := range layers {
		sum += self[l]
		if ly.selfMetric != "" {
			m[ly.selfMetric] = self[l]
		}
		if parent[l] < 0 {
			top += spanNs[l]
		}
	}
	m["compiled.self_share_pct"] = 100 * self[0] / sum
	m["bench.residual_pct"] = 100 * math.Abs(sum-untracedNs) / untracedNs
	m["bench.trace_overhead_pct"] = 100 * (top - untracedNs) / untracedNs

	if r.micro != nil {
		a, f, err := r.micro(m, cc, tmp)
		if err != nil {
			return err
		}
		cr.attempted, cr.failed = cr.attempted+a, cr.failed+f
	}
	return nil
}
