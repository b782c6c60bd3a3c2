package experiments

// AblationRow is the leaf-level result of one estimator family on the D3
// workload.
type AblationRow struct {
	Name   string
	Access string // "online" or "offline"
	Leaf   LevelPR
	Truths int
}

// ablationSweep resolves the ablation's sweep. The four-way comparison is
// heavy, so at paper scale it defaults to a single run unless the caller
// asked for more.
func ablationSweep(o Options) SweepConfig {
	s := sweepAt(o, Synthetic1D)
	if o.Scale == Paper && o.Runs == 0 {
		s.Runs = 1
	}
	return s
}

func runAblation(o Options) (Result, error) { return RunAblation(ablationSweep(o)), nil }

// AblationRows is the ablation result, one row per estimator family.
type AblationRows []AblationRow

// RunAblation compares every density representation on the same D3
// workload at one |R|/|W| point: the paper's kernel method, the favored
// offline histogram, the Haar-wavelet synopsis (the other family Section 4
// cites), and the fully-online sampled histogram that tests the paper's
// "any online technique performs at most as good" conjecture.
func RunAblation(s SweepConfig) AblationRows {
	frac := s.SampleFracs[len(s.SampleFracs)-1]
	kinds := []struct {
		name   string
		access string
		kind   EstimatorKind
	}{
		{"kernel", "online", KindKernel},
		{"equi-depth histogram", "offline", KindHistogram},
		{"wavelet synopsis", "offline", KindWavelet},
		{"sampled histogram", "online", KindSampledHistogram},
	}
	var rows AblationRows
	for _, k := range kinds {
		if k.kind == KindWavelet && s.Workload.Dim() != 1 {
			continue
		}
		prec, rec, truths := s.d3Sweep(frac, k.kind)
		rows = append(rows, AblationRow{
			Name:   k.name,
			Access: k.access,
			Leaf:   LevelPR{Precision: prec[0], Recall: rec[0]},
			Truths: truths,
		})
	}
	return rows
}

// Table renders the estimator-family ablation.
func (rows AblationRows) Table() *Table {
	t := &Table{
		Title:   "Ablation — estimator families on the D3 workload (leaf level)",
		Columns: []string{"estimator", "access model", "precision", "recall", "true-outliers/run"},
		Notes: []string{
			"paper §4/§10: kernels are as accurate as histograms and wavelets, and often beat them on precision",
			"offline baselines read every window value per rebuild; online ones only the chain sample",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Name, r.Access, FmtPct(r.Leaf.Precision), FmtPct(r.Leaf.Recall), r.Truths)
	}
	return t
}

// Metrics emits the leaf metrics per estimator family.
func (rows AblationRows) Metrics(set func(string, float64)) {
	for _, r := range rows {
		p := slug(r.Name)
		set(p+".precision", r.Leaf.Precision)
		set(p+".recall", r.Leaf.Recall)
		set(p+".truths", float64(r.Truths))
	}
}
