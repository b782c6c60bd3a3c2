package experiments

import (
	"math/rand"

	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/histogram"
	"odds/internal/mdef"
	"odds/internal/parallel"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/wavelet"
	"odds/internal/window"
)

// EstimatorKind selects the density representation under evaluation:
// the paper's kernel method or the equi-depth histogram baseline it is
// compared against in Figure 7.
type EstimatorKind int

const (
	// KindKernel is the paper's method: chain sample + variance sketch +
	// Epanechnikov kernel model, fully online.
	KindKernel EstimatorKind = iota
	// KindHistogram is the favored offline baseline: equi-depth histograms
	// (a grid histogram in 2-d) built by accessing all window values —
	// at parents, the union of all descendant windows.
	KindHistogram
	// KindSampledHistogram is the fair online histogram: equi-depth over
	// the chain sample instead of the full window, with the same memory
	// and online constraints as the kernel method. The paper conjectures
	// any online histogram performs at most as well as the offline one;
	// this variant measures it.
	KindSampledHistogram
	// KindWavelet is the Haar-wavelet synopsis baseline (Section 4 claims
	// kernels match wavelets as well as histograms): built offline from
	// the full window like KindHistogram, retaining |B| coefficients for
	// comparable memory. 1-d workloads only.
	KindWavelet
)

// PRConfig drives the precision/recall experiments (Figures 7–10): a
// hierarchy of Leaves sensors with the given branching, one stream per
// leaf, and the detection parameters under test. Evaluation compares every
// arrival's online decision against the exact offline decision
// (BruteForce-D / BruteForce-M) for the same window instance, per level.
type PRConfig struct {
	Leaves    int
	Branching int
	Core      core.Config
	Dist      distance.Params
	MDEF      mdef.Params
	Kind      EstimatorKind
	// HistBuckets is |B| for the histogram baseline (the paper sets
	// |B| = |R| for comparable memory).
	HistBuckets int
	// HistRebuildEpochs is the epoch interval between histogram rebuilds.
	HistRebuildEpochs int
	// Epochs is the stream length per sensor; MeasureFrom the epoch at
	// which accounting starts (after windows fill).
	Epochs      int
	MeasureFrom int
	// Workers bounds the number of goroutines stepping leaf sensors
	// concurrently each epoch; 0 or 1 runs fully serially. The parallel
	// path splits every epoch into a concurrent per-sensor phase (source
	// draw, window slide, leaf truth, leaf estimation, leaf decision — all
	// leaf-local state) and an ordered aggregation phase (parent truth
	// indexes, sample propagation, parent models), so for a fixed seed it
	// produces results identical to the serial path. Only the online
	// estimator kinds (KindKernel, KindSampledHistogram) parallelize: the
	// offline baselines rebuild from other sensors' raw windows mid-epoch
	// and are therefore inherently order-dependent across leaves.
	Workers int
	Seed    int64
	// Streams builds the per-leaf source; nil defaults to the paper's
	// synthetic mixture.
	Streams func(leaf int, seed int64) stream.Source
}

func (c *PRConfig) streams(leaf int, seed int64) stream.Source {
	if c.Streams != nil {
		return c.Streams(leaf, seed)
	}
	return stream.NewMixture(stream.DefaultMixture(), c.Core.Dim, seed)
}

// levelsOf returns, for a leaf-count and branching, the node counts per
// level (level 0 = leaves).
func levelsOf(leaves, branching int) []int {
	out := []int{leaves}
	for n := leaves; n > 1; {
		n = (n + branching - 1) / branching
		out = append(out, n)
	}
	return out
}

// d3Node is the evaluation-side state for one hierarchy node.
type d3Node struct {
	level  int
	parent *d3Node
	est    *core.Estimator    // kernel mode detection state
	idx    *distance.DynIndex // exact truth over this subtree's windows
	wins   []*window.Sliding  // descendant leaf windows (offline rebuilds)

	syn       synopsis // histogram or wavelet of the non-kernel kinds; nil until first built
	nextBuild int
}

// synopsis is a bucketed density model answering the (D,r) range count.
type synopsis interface {
	Count(p []float64, r float64) float64
}

// histModel is what both histogram shapes offer: range counts for D3's
// (D,r) test and box counts for MGDD's MDEF evaluation.
type histModel interface {
	synopsis
	mdef.Counter
}

// values is a gathered set of readings in the shape the synopsis
// constructors take: the single column in 1-d, the points otherwise.
type values struct {
	col []float64
	pts [][]float64
}

func (v values) len() int { return len(v.col) + len(v.pts) }

// valuesOf gathers pts.
func valuesOf(pts []window.Point, dim int) values {
	var v values
	for _, p := range pts {
		if dim == 1 {
			v.col = append(v.col, p[0])
		} else {
			v.pts = append(v.pts, p)
		}
	}
	return v
}

// valuesIn gathers every value currently in wins. The 1-d case reads the
// columns directly: these rebuilds are the offline baselines' whole cost,
// and materializing window.Union first made them a quarter slower.
func valuesIn(wins []*window.Sliding, dim int) values {
	if dim != 1 {
		return valuesOf(window.Union(wins...), dim)
	}
	var v values
	for _, w := range wins {
		v.col = append(v.col, w.Column(0)...)
	}
	return v
}

// newHistogram builds the |B|-bucket histogram of v with counts scaled to
// windowCount: equi-depth in 1-d, a grid otherwise.
func (c *PRConfig) newHistogram(v values, windowCount float64) (histModel, error) {
	if c.Core.Dim == 1 {
		return histogram.NewEquiDepth(v.col, c.HistBuckets, windowCount)
	}
	return histogram.NewGrid(v.pts, gridSide(c.HistBuckets, c.Core.Dim), windowCount)
}

// D3Result reports per-level precision/recall and the number of true
// outliers observed during the measured phase.
type D3Result struct {
	PerLevel     []PR
	TrueOutliers int // truth positives at the leaf level
}

// RunD3 evaluates the D3 algorithm (kernel or histogram variant) against
// exact per-arrival ground truth. The control flow mirrors Figure 4: leaf
// sample inclusions propagate up with probability f; a value reaches level
// L only if every level below flagged it.
func RunD3(c PRConfig) D3Result {
	if err := c.Core.Validate(); err != nil {
		panic(err)
	}
	if err := c.Dist.Validate(); err != nil {
		panic(err)
	}
	if c.Kind == KindWavelet && c.Core.Dim != 1 {
		panic("experiments: wavelet baseline is 1-d only")
	}
	master := stats.NewRand(c.Seed)
	counts := levelsOf(c.Leaves, c.Branching)
	depth := len(counts)

	// Build nodes level by level; leaves[i] holds its ancestor chain.
	nodes := make([][]*d3Node, depth)
	for lvl := depth - 1; lvl >= 0; lvl-- {
		nodes[lvl] = make([]*d3Node, counts[lvl])
		for i := range nodes[lvl] {
			n := &d3Node{level: lvl, idx: distance.NewDynIndex(c.Dist.Radius, c.Core.Dim)}
			if lvl < depth-1 {
				n.parent = nodes[lvl+1][i/c.Branching]
			}
			nodes[lvl][i] = n
		}
	}
	leafRngs := make([]*rand.Rand, c.Leaves)
	srcs := make([]stream.Source, c.Leaves)
	wins := make([]*window.Sliding, c.Leaves)
	for i := 0; i < c.Leaves; i++ {
		leafRngs[i] = stats.SplitRand(master)
		srcs[i] = c.streams(i, master.Int63())
		wins[i] = window.New(c.Core.WindowCap, c.Core.Dim)
		for n := nodes[0][i]; n != nil; n = n.parent {
			n.wins = append(n.wins, wins[i])
		}
	}
	if c.Kind == KindKernel || c.Kind == KindSampledHistogram {
		for lvl, row := range nodes {
			for _, n := range row {
				if lvl == 0 {
					n.est = core.NewEstimator(c.Core, c.Core.WindowCap, float64(c.Core.WindowCap), stats.SplitRand(master))
				} else {
					recv := int(float64(len(n.wins)) * c.Core.SampleFraction * float64(c.Core.SampleSize))
					n.est = core.NewEstimator(c.Core, recv, float64(len(n.wins)*c.Core.WindowCap), stats.SplitRand(master))
				}
			}
		}
	}

	// rebuild refreshes an offline baseline from every value in the node's
	// descendant windows.
	rebuild := func(n *d3Node) {
		v := valuesIn(n.wins, c.Core.Dim)
		if v.len() == 0 {
			return
		}
		var err error
		if c.Kind == KindWavelet {
			// 512 base bins resolve the query radius; |B| coefficients
			// match the histogram's memory budget.
			n.syn, err = wavelet.New(v.col, 9, c.HistBuckets, float64(v.len()))
		} else {
			n.syn, err = c.newHistogram(v, float64(v.len()))
		}
		if err != nil {
			panic(err)
		}
	}
	// rebuildSampled refreshes the online sampled histogram of a node from
	// its chain sample, scaling counts to the node's window size exactly
	// like the kernel model does.
	rebuildSampled := func(n *d3Node) {
		pts := n.est.SamplePoints()
		if len(pts) == 0 {
			return
		}
		if h, err := c.newHistogram(valuesOf(pts, c.Core.Dim), n.est.EffectiveWindowCount()); err == nil {
			n.syn = h
		}
	}

	// What differs between the kinds is factored out once: the online kinds
	// keep a chain-sample estimator per node and propagate inclusions
	// upward; every kind but the kernel refreshes a per-node synopsis on its
	// own cadence and decides from it.
	online := c.Kind == KindKernel || c.Kind == KindSampledHistogram
	var refresh func(*d3Node)
	switch c.Kind {
	case KindHistogram, KindWavelet:
		refresh = rebuild
	case KindSampledHistogram:
		refresh = rebuildSampled
	}
	refreshDue := func(n *d3Node, epoch int) {
		if refresh != nil && epoch >= n.nextBuild {
			refresh(n)
			n.nextBuild = epoch + c.HistRebuildEpochs
		}
	}
	flags := func(n *d3Node, v window.Point) bool {
		if c.Kind == KindKernel {
			return n.est.Warmed() && n.est.IsDistanceOutlier(v, c.Dist)
		}
		return n.syn != nil && n.syn.Count(v, c.Dist.Radius) < c.Dist.Threshold
	}

	prs := make([]PR, depth)
	trueOutliers := 0
	truth := make([]bool, depth)
	chain := make([]*d3Node, depth)
	pred := make([]bool, depth)

	// Every epoch splits into two phases. The per-sensor phase touches only
	// state owned by one leaf (its source, window, truth index, estimation
	// state, histogram, and rng), so the parallel path may run it on any
	// worker; the aggregation phase walks leaves in index order and owns all
	// shared state (parent truth indexes, parent estimators and histograms,
	// the propagation coin sequence beyond the first flip). Running
	// leafPhase(li) immediately followed by aggregate(li) per leaf is
	// operation-for-operation the original serial evaluation, which is what
	// makes the parallel path output-identical: leafPhase reads nothing
	// another leaf writes, and aggregate runs in the same order either way.
	type d3Step struct {
		v         window.Point
		old       window.Point // point evicted this epoch (nil while filling)
		propagate bool         // leaf's f-coin, drawn only on sample inclusion
		leafTruth bool
		leafPred  bool
	}

	leafPhase := func(li, epoch int) d3Step {
		st := d3Step{v: srcs[li].Next()}
		leaf := nodes[0][li]
		if wins[li].Full() {
			st.old = wins[li].Oldest()
			if !leaf.idx.Remove(st.old) {
				panic("experiments: truth index out of sync")
			}
		}
		wins[li].Push(st.v)
		leaf.idx.Add(st.v)
		st.leafTruth = leaf.idx.IsOutlier(st.v, c.Dist)

		// The sampled histogram keeps the same online state as the kernel
		// method; only the density representation differs.
		warm := epoch >= c.MeasureFrom/2
		if online {
			if leaf.est.Observe(st.v) {
				st.propagate = leafRngs[li].Float64() < c.Core.SampleFraction
			}
			warm = leaf.est.Warmed()
		}
		refreshDue(leaf, epoch)
		st.leafPred = warm && flags(leaf, st.v)
		return st
	}

	aggregate := func(li, epoch int, st d3Step, measuring bool) {
		leaf := nodes[0][li]
		k := 0
		for n := leaf; n != nil; n = n.parent {
			chain[k] = n
			k++
		}

		// Slide the shared truth indexes: evictions leave every ancestor.
		truth[0] = st.leafTruth
		for l := 1; l < k; l++ {
			n := chain[l]
			if st.old != nil {
				if !n.idx.Remove(st.old) {
					panic("experiments: truth index out of sync")
				}
			}
			n.idx.Add(st.v)
			truth[l] = n.idx.IsOutlier(st.v, c.Dist)
		}

		// Online decisions per Figure 4.
		if st.propagate {
			// Propagate the sampled value up while each level's sample
			// adopts it and its coin allows.
			for n := leaf.parent; n != nil; n = n.parent {
				if !n.est.Observe(st.v) || leafRngs[li].Float64() >= c.Core.SampleFraction {
					break
				}
			}
		}
		for _, n := range chain[1:k] {
			refreshDue(n, epoch)
		}
		flagged := st.leafPred
		pred[0] = flagged
		for l := 1; l < k; l++ {
			flagged = flagged && flags(chain[l], st.v)
			pred[l] = flagged
		}

		if measuring {
			for l := 0; l < k; l++ {
				prs[l].Observe(pred[l], truth[l])
			}
			if truth[0] {
				trueOutliers++
			}
		}
	}

	// The offline baselines (KindHistogram, KindWavelet) rebuild parent
	// synopses from the raw windows of every descendant leaf, so a parent
	// rebuild triggered at leaf li must see leaves > li without the current
	// epoch's value — an inherently serial dependency. The online kinds
	// keep all cross-leaf state behind the aggregation phase and
	// parallelize exactly.
	if c.Workers > 1 && online && c.Leaves > 1 {
		pool := parallel.New(c.Workers)
		steps := make([]d3Step, c.Leaves)
		for epoch := 0; epoch < c.Epochs; epoch++ {
			e := epoch
			pool.For(c.Leaves, func(li int) { steps[li] = leafPhase(li, e) })
			measuring := epoch >= c.MeasureFrom
			for li := 0; li < c.Leaves; li++ {
				aggregate(li, epoch, steps[li], measuring)
			}
		}
	} else {
		for epoch := 0; epoch < c.Epochs; epoch++ {
			measuring := epoch >= c.MeasureFrom
			for li := 0; li < c.Leaves; li++ {
				aggregate(li, epoch, leafPhase(li, epoch), measuring)
			}
		}
	}
	return D3Result{PerLevel: prs, TrueOutliers: trueOutliers}
}

// gridSide picks the per-dimension cell count giving roughly `buckets`
// total cells for a d-dimensional grid histogram.
func gridSide(buckets, dim int) int {
	side := 1
	for side2 := side; ; side2++ {
		cells := 1
		for i := 0; i < dim; i++ {
			cells *= side2
		}
		if cells > buckets {
			break
		}
		side = side2
	}
	if side < 2 {
		side = 2
	}
	return side
}

// MGDDResult reports the leaf-level precision/recall of MGDD.
type MGDDResult struct {
	PR           PR
	TrueOutliers int
}

// RunMGDD evaluates the MGDD algorithm against exact per-arrival
// BruteForce-M ground truth over the union of all leaf windows. Under the
// kernel kind, sample inclusions propagate to the top leader, whose sample
// adoptions are pushed to every leaf's global-model replica (Section 8.1);
// under the histogram kind the global model is an equi-depth histogram
// over all window values, rebuilt periodically (the favored baseline).
func RunMGDD(c PRConfig) MGDDResult {
	if err := c.Core.Validate(); err != nil {
		panic(err)
	}
	if err := c.MDEF.Validate(); err != nil {
		panic(err)
	}
	master := stats.NewRand(c.Seed)
	counts := levelsOf(c.Leaves, c.Branching)
	depth := len(counts)

	leafRngs := make([]*rand.Rand, c.Leaves)
	srcs := make([]stream.Source, c.Leaves)
	wins := make([]*window.Sliding, c.Leaves)
	for i := 0; i < c.Leaves; i++ {
		leafRngs[i] = stats.SplitRand(master)
		srcs[i] = c.streams(i, master.Int63())
		wins[i] = window.New(c.Core.WindowCap, c.Core.Dim)
	}

	truth := mdef.NewDynTruth(c.MDEF, c.Core.Dim)
	unionCount := float64(c.Leaves * c.Core.WindowCap)

	// One MDEF evaluator serves every decision: decisions happen only in
	// the serial aggregation phase, and the scratch is model-independent.
	var eval mdef.Evaluator

	// Kernel mode state.
	leafEsts := make([]*core.Estimator, c.Leaves)
	replicas := make([]*core.GlobalModel, c.Leaves)
	caches := make([]*mdef.CachedCounter, c.Leaves)
	var upper []*core.Estimator // one estimator per non-leaf level (path state)
	if c.Kind == KindKernel {
		for i := 0; i < c.Leaves; i++ {
			leafEsts[i] = core.NewEstimator(c.Core, c.Core.WindowCap, float64(c.Core.WindowCap), stats.SplitRand(master))
			replicas[i] = core.NewGlobalModel(c.Core.SampleSize, c.Core.Dim, unionCount, stats.SplitRand(master))
		}
		// Model one representative leader per upper level. Its sample
		// window is sized by the per-leader descendant count
		// (branching^lvl), so the steady-state adoption probability per
		// receipt — and hence the rate of adoptions flowing upward —
		// matches the aggregate across the real topology's leaders at that
		// level.
		desc := 1
		for lvl := 1; lvl < depth; lvl++ {
			desc *= c.Branching
			if desc > c.Leaves {
				desc = c.Leaves
			}
			recv := int(float64(desc) * c.Core.SampleFraction * float64(c.Core.SampleSize))
			upper = append(upper, core.NewEstimator(c.Core, recv, float64(desc*c.Core.WindowCap), stats.SplitRand(master)))
		}
	}

	// Histogram mode state: the global model is held via gcache.
	var gcache *mdef.CachedCounter
	nextBuild := 0
	rebuildGlobal := func() {
		v := valuesIn(wins, c.Core.Dim)
		if v.len() == 0 {
			return
		}
		h, err := c.newHistogram(v, float64(v.len()))
		if err != nil {
			panic(err)
		}
		gcache = mdef.NewCachedCounter(h, c.MDEF.AlphaR)
	}

	var pr PR
	trueOutliers := 0
	sigmaOf := func(e *core.Estimator) float64 {
		sds := e.StdDevs()
		sum, cnt := 0.0, 0
		for _, s := range sds {
			if s == s && s > 0 {
				sum += s
				cnt++
			}
		}
		if cnt == 0 {
			return 0.05
		}
		return sum / float64(cnt)
	}

	// The epoch splits exactly like RunD3: a per-sensor phase touching only
	// leaf-local state (source, window, local estimation), and an ordered
	// aggregation phase owning everything shared — the union ground truth,
	// the leader-path estimators, the replica pushes, and the replica-model
	// queries (a leaf's replica may have been updated by an earlier leaf's
	// propagation in the same epoch, so decision order matters).
	type mgddStep struct {
		v         window.Point
		old       window.Point // point evicted this epoch (nil while filling)
		propagate bool         // leaf's f-coin, drawn only on sample inclusion
	}

	leafPhase := func(li int) mgddStep {
		st := mgddStep{v: srcs[li].Next()}
		if wins[li].Full() {
			st.old = wins[li].Oldest()
		}
		wins[li].Push(st.v)
		if c.Kind == KindKernel {
			if leafEsts[li].Observe(st.v) {
				st.propagate = leafRngs[li].Float64() < c.Core.SampleFraction
			}
		}
		return st
	}

	aggregate := func(li, epoch int, st mgddStep, measuring bool) {
		if st.old != nil {
			if !truth.Remove(st.old) {
				panic("experiments: mdef truth out of sync")
			}
		}
		truth.Add(st.v)
		isTrue := truth.IsOutlier(st.v)

		var flagged bool
		switch c.Kind {
		case KindKernel:
			if st.propagate {
				for lvl := 0; lvl < len(upper); lvl++ {
					if !upper[lvl].Observe(st.v) {
						break
					}
					if lvl == len(upper)-1 {
						// Top-leader adoption: push to every replica.
						sg := sigmaOf(upper[lvl])
						for _, rep := range replicas {
							rep.Update(st.v, sg, epoch)
						}
					} else if leafRngs[li].Float64() >= c.Core.SampleFraction {
						break
					}
				}
			}
			if m := replicas[li].Model(); m != nil && leafEsts[li].Warmed() {
				// The replica model is maintained in place, so the cache must
				// track its generation, not just its pointer.
				caches[li] = mdef.RefreshCachedCounter(caches[li], m, c.MDEF.AlphaR)
				flagged = eval.IsOutlier(caches[li], st.v, c.MDEF)
			}
		case KindHistogram:
			if gcache != nil && epoch >= c.MeasureFrom/2 {
				flagged = eval.IsOutlier(gcache, st.v, c.MDEF)
			}
		}

		if measuring {
			pr.Observe(flagged, isTrue)
			if isTrue {
				trueOutliers++
			}
		}
	}

	// One worker runs the per-sensor phase inline, so serial is not a
	// separate path.
	pool := parallel.New(max(1, c.Workers))
	steps := make([]mgddStep, c.Leaves)
	for epoch := 0; epoch < c.Epochs; epoch++ {
		measuring := epoch >= c.MeasureFrom
		if c.Kind == KindHistogram && epoch >= nextBuild {
			// Rebuilt before any leaf pushes this epoch, so the global
			// histogram sees the same windows on either path.
			rebuildGlobal()
			nextBuild = epoch + c.HistRebuildEpochs
		}
		pool.For(c.Leaves, func(li int) { steps[li] = leafPhase(li) })
		for li := 0; li < c.Leaves; li++ {
			aggregate(li, epoch, steps[li], measuring)
		}
	}
	return MGDDResult{PR: pr, TrueOutliers: trueOutliers}
}
