package main

import (
	"testing"

	"odds/internal/experiments"
)

func TestCheckFlags(t *testing.T) {
	none := map[string]bool{}
	cases := []struct {
		name    string
		exp     string
		runs    int
		workers int
		check   bool
		update  bool
		args    []string
		set     map[string]bool
		wantErr bool
	}{
		{name: "defaults", exp: "all", workers: 4},
		{name: "one experiment", exp: "fig7", runs: 12, workers: 1},
		{name: "ablation with runs", exp: "ablation", runs: 3, workers: 1},
		{name: "golden check", exp: "all", workers: 2, check: true},
		{name: "golden file with update", exp: "all", workers: 2, update: true,
			set: map[string]bool{"golden-file": true}},
		{name: "unknown experiment", exp: "fig77", workers: 4, wantErr: true},
		{name: "empty experiment", exp: "", workers: 4, wantErr: true},
		{name: "negative runs", exp: "all", runs: -1, workers: 4, wantErr: true},
		{name: "zero workers", exp: "all", workers: 0, wantErr: true},
		{name: "negative workers", exp: "all", workers: -3, wantErr: true},
		{name: "check and update together", exp: "all", workers: 4, check: true, update: true, wantErr: true},
		{name: "positional args", exp: "all", workers: 4, args: []string{"fig7"}, wantErr: true},
		{name: "exp with golden mode", exp: "fig7", workers: 4, check: true,
			set: map[string]bool{"exp": true}, wantErr: true},
		{name: "quick with golden mode", exp: "all", workers: 4, update: true,
			set: map[string]bool{"quick": true}, wantErr: true},
		{name: "golden-figs without golden mode", exp: "all", workers: 4,
			set: map[string]bool{"golden-figs": true}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := tc.set
			if set == nil {
				set = none
			}
			err := checkFlags(tc.exp, tc.runs, tc.workers, tc.check, tc.update, tc.args, set)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkFlags() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestOptionsKeepRuns pins oddsim's half of the `-exp ablation -runs N`
// contract: the run count reaches the experiment untouched at either
// scale, and stays 0 when -runs was not given — the signal ablation uses
// to fall back to a single paper-scale run (its half is
// experiments.TestAblationRunsOverride).
func TestOptionsKeepRuns(t *testing.T) {
	cases := []struct {
		quick bool
		runs  int
		scale experiments.Scale
	}{
		{false, 0, experiments.Paper},
		{false, 3, experiments.Paper},
		{true, 0, experiments.Quick},
		{true, 3, experiments.Quick},
	}
	for _, tc := range cases {
		o := options(tc.quick, tc.runs, 7, 2)
		if o.Scale != tc.scale || o.Runs != tc.runs || o.Seed != 7 || o.Workers != 2 {
			t.Errorf("options(quick=%v, runs=%d) = %+v", tc.quick, tc.runs, o)
		}
	}
}
