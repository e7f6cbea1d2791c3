package experiments

import (
	"fmt"
	"strings"

	"fuzzydup/internal/baseline"
	"fuzzydup/internal/core"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/eval"
	"fuzzydup/internal/nnindex"
)

// RobustnessRow is one error-level measurement: best F1 of DE_S and of the
// threshold baseline (each at its best parameter) at a given corruption
// level.
type RobustnessRow struct {
	ErrorsPerDup int
	DEF1         float64
	ThrF1        float64
	DEPrecAtThr  float64 // DE precision at the recall the baseline's best-F1 point reaches
}

// RobustnessResult is the error-level sweep.
type RobustnessResult struct {
	Dataset string
	Rows    []RobustnessRow
}

// Robustness sweeps the duplicate corruption level (errors per duplicate
// copy) and compares the best achievable quality of DE against the
// threshold baseline. The claim behind the paper's title: the local
// CS/SN structure keeps identifying duplicates as they drift apart, while
// any single global threshold must either lose them or drown in
// confusable-series false positives.
func Robustness(dsName string, size int, seed int64, errorLevels []int) (*RobustnessResult, error) {
	if len(errorLevels) == 0 {
		errorLevels = []int{1, 2, 3, 4}
	}
	res := &RobustnessResult{Dataset: dsName}
	for _, errs := range errorLevels {
		ds, err := dataset.ByName(dsName, dataset.Config{Size: size, Seed: seed, ErrorsPerDup: errs})
		if err != nil {
			return nil, err
		}
		keys := ds.Keys()
		metric, err := distance.ByName("ed", keys)
		if err != nil {
			return nil, err
		}
		idx := nnindex.NewExact(keys, metric)

		// DE_S sweep.
		relS, err := core.ComputeNN(idx, core.Cut{MaxSize: 6}, core.DefaultP, core.Phase1Options{})
		if err != nil {
			return nil, err
		}
		deCurve := eval.Curve{Name: "DE_S"}
		for _, k := range []int{2, 3, 4, 5, 6} {
			rel := relS.TruncateSize(k)
			groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: k}, Agg: core.AggMax, C: 4})
			if err != nil {
				return nil, err
			}
			pr := eval.PrecisionRecall(groups, ds.Truth)
			pr.Param = float64(k)
			deCurve.Points = append(deCurve.Points, pr)
		}

		// thr sweep.
		relD, err := core.ComputeNN(idx, core.Cut{Diameter: 0.6}, core.DefaultP, core.Phase1Options{})
		if err != nil {
			return nil, err
		}
		lists := make([][]nnindex.Neighbor, len(relD.Rows))
		for i, row := range relD.Rows {
			lists[i] = row.NNList
		}
		thrCurve := eval.Curve{Name: "thr"}
		var bestThr eval.PR
		for i := 1; i <= 16; i++ {
			theta := 0.6 * float64(i) / 16
			pr := eval.PrecisionRecall(baseline.SingleLinkage(ds.Len(), lists, theta), ds.Truth)
			pr.Param = theta
			thrCurve.Points = append(thrCurve.Points, pr)
			if pr.F1() > bestThr.F1() {
				bestThr = pr
			}
		}
		res.Rows = append(res.Rows, RobustnessRow{
			ErrorsPerDup: errs,
			DEF1:         deCurve.MaxF1(),
			ThrF1:        thrCurve.MaxF1(),
			DEPrecAtThr:  deCurve.PrecisionAt(bestThr.Recall * 0.95),
		})
	}
	return res, nil
}

// Format renders the robustness table.
func (r *RobustnessResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: quality vs duplicate corruption level\n", r.Dataset)
	fmt.Fprintf(&b, "  %-10s %-10s %-10s\n", "errors", "DE F1", "thr F1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10d %-10.3f %-10.3f\n", row.ErrorsPerDup, row.DEF1, row.ThrF1)
	}
	return b.String()
}

// PSweepRow is one growth-factor setting's outcome.
type PSweepRow struct {
	P  float64
	F1 float64
}

// PSweepResult is the growth-factor sensitivity ablation.
type PSweepResult struct {
	Dataset string
	Rows    []PSweepRow
}

// PSweep varies the neighborhood growth-sphere factor p (the paper fixes
// p = 2 and notes more general functions are possible) and records DE_S
// quality. The expected shape: a plateau around 2 — small p collapses
// every neighborhood to "sparse" (SN stops filtering), large p inflates
// growths until real duplicates are rejected.
func PSweep(dsName string, size int, seed int64, ps []float64) (*PSweepResult, error) {
	if len(ps) == 0 {
		ps = []float64{1.25, 1.5, 2, 3, 4}
	}
	ds, err := loadDataset(dsName, size, seed)
	if err != nil {
		return nil, err
	}
	keys := ds.Keys()
	metric, err := distance.ByName("ed", keys)
	if err != nil {
		return nil, err
	}
	idx := nnindex.NewExact(keys, metric)
	res := &PSweepResult{Dataset: ds.Name}
	for _, p := range ps {
		groups, _, err := core.Solve(idx,
			core.Problem{Cut: core.Cut{MaxSize: 3}, Agg: core.AggMax, C: 4, P: p},
			core.Phase1Options{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, PSweepRow{P: p, F1: eval.PrecisionRecall(groups, ds.Truth).F1()})
	}
	return res, nil
}

// Format renders the p-sweep table.
func (r *PSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: DE_S(3) F1 vs growth factor p\n", r.Dataset)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  p=%-6.3g F1=%.3f\n", row.P, row.F1)
	}
	return b.String()
}
