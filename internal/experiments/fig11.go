package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"odds/internal/core"
	"odds/internal/network"
	"odds/internal/stats"
	"odds/internal/tagsim"
)

// Fig11Config parameterizes the communication-cost experiment (paper
// Figure 11): messages per second versus the number of sensors, for the
// centralized baseline, MGDD, and D3. The paper sets |W| = 10240,
// |R| = 1024, f = 0.25, one reading per sensor per second, and counts
// only the periodic traffic (sample propagation and global-model updates;
// outlier reports are excluded as infrequent).
type Fig11Config struct {
	LeafCounts []int
	Branching  int
	WindowCap  int
	SampleSize int
	F          float64
	// WarmEpochs runs before accounting starts (sample-inclusion rates
	// stabilize once arrivals exceed |W|); MeasureEpochs are counted.
	WarmEpochs    int
	MeasureEpochs int
	Seed          int64
}

// DefaultFig11 returns the paper's parameters over a node-count ladder
// spanning the same ~100–6000 range the paper plots.
func DefaultFig11() Fig11Config {
	return Fig11Config{
		LeafCounts:    []int{64, 256, 1024, 4096},
		Branching:     4,
		WindowCap:     10240,
		SampleSize:    1024,
		F:             0.25,
		WarmEpochs:    12000,
		MeasureEpochs: 2048,
		Seed:          1,
	}
}

// Quick shrinks the ladder for smoke tests.
func (c Fig11Config) Quick() Fig11Config {
	c.LeafCounts = []int{64, 256}
	c.WindowCap = 1024
	c.SampleSize = 128
	c.WarmEpochs = 1500
	c.MeasureEpochs = 256
	return c
}

// runFig11 is the registry driver; the golden scale is the quick ladder.
func runFig11(o Options) (Result, error) {
	c := DefaultFig11()
	if o.Scale != Paper {
		c = c.Quick()
	}
	c.Seed = o.Seed
	return RunFig11(c), nil
}

// Fig11Row is one ladder step.
type Fig11Row struct {
	Nodes                 int
	Centralized, MGDD, D3 float64 // messages per second
}

// centralOverD3 is the headline ratio, NaN when D3 sent nothing.
func (r Fig11Row) centralOverD3() float64 {
	if r.D3 > 0 {
		return r.Centralized / r.D3
	}
	return math.NaN()
}

// Fig11Rows is the Figure 11 result, one row per network size.
type Fig11Rows []Fig11Row

// liteLeaf reproduces the message-generating behavior of a leaf without
// the estimation state: a chain sample with |R| independent slots adopts
// each arrival with probability 1-(1-1/min(n,|W|))^|R|, and adoptions are
// forwarded with probability f. This makes the 6000-node ladder
// affordable while keeping the message process exact in distribution.
type liteLeaf struct {
	id, parent tagsim.NodeID
	w, r       int
	f          float64
	n          int
	rng        *rand.Rand
	central    bool
}

func (l *liteLeaf) ID() tagsim.NodeID { return l.id }

func adoptProb(n, w, r int) float64 {
	if n < 1 {
		n = 1
	}
	if n > w {
		n = w
	}
	return 1 - math.Pow(1-1/float64(n), float64(r))
}

func (l *liteLeaf) OnEpoch(s tagsim.Sender, epoch int) {
	l.n++
	if l.central {
		s.Send(l.parent, core.KindReading, nil, 0)
		return
	}
	if l.rng.Float64() < adoptProb(l.n, l.w, l.r) && l.rng.Float64() < l.f {
		s.Send(l.parent, core.KindSample, nil, 0)
	}
}

func (l *liteLeaf) OnMessage(s tagsim.Sender, m tagsim.Message) {}

// liteParent mirrors the leader behavior: received samples are adopted by
// its own chain sample (window = expected receipts per union span) and
// forwarded up with probability f; under MGDD the top leader's adoptions
// broadcast down the tree, relays fanning out to their children.
type liteParent struct {
	id, parent tagsim.NodeID
	hasUp      bool
	children   []tagsim.NodeID
	w, r       int
	f          float64
	n          int
	rng        *rand.Rand
	mgdd       bool
	central    bool
}

func (p *liteParent) ID() tagsim.NodeID              { return p.id }
func (p *liteParent) OnEpoch(s tagsim.Sender, e int) {}

func (p *liteParent) OnMessage(s tagsim.Sender, m tagsim.Message) {
	switch m.Kind {
	case core.KindReading:
		if p.hasUp {
			s.Send(p.parent, core.KindReading, nil, 0)
		}
	case core.KindSample:
		p.n++
		if p.rng.Float64() >= adoptProb(p.n, p.w, p.r) {
			return
		}
		if p.hasUp {
			if p.rng.Float64() < p.f {
				s.Send(p.parent, core.KindSample, nil, 0)
			}
			return
		}
		if p.mgdd {
			for _, ch := range p.children {
				s.Send(ch, core.KindGlobal, nil, 0)
			}
		}
	case core.KindGlobal:
		for _, ch := range p.children {
			s.Send(ch, core.KindGlobal, nil, 0)
		}
	}
}

// runLadderStep measures one algorithm at one network size.
func runLadderStep(c Fig11Config, leaves int, algo string) float64 {
	topo := network.NewHierarchy(leaves, c.Branching)
	sim := tagsim.New()
	master := stats.NewRand(c.Seed)
	for _, id := range topo.Leaves() {
		par, _ := topo.Parent(id)
		sim.Add(&liteLeaf{
			id: id, parent: par,
			w: c.WindowCap, r: c.SampleSize, f: c.F,
			rng:     stats.SplitRand(master),
			central: algo == "central",
		})
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			par, up := topo.Parent(id)
			desc := len(topo.DescendantLeaves(id))
			recv := int(float64(desc) * c.F * float64(c.SampleSize))
			if recv < c.SampleSize {
				recv = c.SampleSize
			}
			sim.Add(&liteParent{
				id: id, parent: par, hasUp: up,
				children: topo.Children[id],
				w:        recv, r: c.SampleSize, f: c.F,
				rng:  stats.SplitRand(master),
				mgdd: algo == "mgdd", central: algo == "central",
			})
		}
	}
	sim.Run(c.WarmEpochs)
	sim.ResetStats()
	sim.Run(c.MeasureEpochs)
	return sim.Stats().PerSecond()
}

// RunFig11 executes the ladder and returns the rows.
func RunFig11(c Fig11Config) Fig11Rows {
	rows := make(Fig11Rows, 0, len(c.LeafCounts))
	for _, leaves := range c.LeafCounts {
		topo := network.NewHierarchy(leaves, c.Branching)
		rows = append(rows, Fig11Row{
			Nodes:       topo.NodeCount(),
			Centralized: runLadderStep(c, leaves, "central"),
			MGDD:        runLadderStep(c, leaves, "mgdd"),
			D3:          runLadderStep(c, leaves, "d3"),
		})
	}
	return rows
}

// Table renders the ladder.
func (rows Fig11Rows) Table() *Table {
	t := &Table{
		Title:   "Figure 11 — messages per second vs network size",
		Columns: []string{"nodes", "centralized", "MGDD", "D3", "central/D3"},
		Notes: []string{
			"paper: D3 ≈ two orders of magnitude below centralized; MGDD between them",
			"counts periodic traffic only (outlier reports excluded, as in the paper)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Nodes, FmtF(r.Centralized, 1), FmtF(r.MGDD, 1), FmtF(r.D3, 1), FmtF(r.centralOverD3(), 0))
	}
	return t
}

// Metrics emits the three message rates and their headline ratio per
// network size.
func (rows Fig11Rows) Metrics(set func(string, float64)) {
	for _, r := range rows {
		p := fmt.Sprintf("n%d", r.Nodes)
		set(p+".centralized", r.Centralized)
		set(p+".mgdd", r.MGDD)
		set(p+".d3", r.D3)
		set(p+".central_over_d3", r.centralOverD3())
	}
}
