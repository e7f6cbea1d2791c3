package experiments

import (
	"fmt"
	"strings"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/eval"
)

// EstimatorConfig parameterizes the Section 4.3 experiment: estimate the
// SN threshold c from the duplicate fraction f and compare the resulting
// quality against oracle thresholds.
type EstimatorConfig struct {
	Datasets []string
	Size     int
	Seed     int64
	Metric   string
	K        int
	OracleCs []float64
}

func (c EstimatorConfig) withDefaults() EstimatorConfig {
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"media", "restaurants", "birdscott", "census"}
	}
	if c.Size == 0 {
		c.Size = 800
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Metric == "" {
		c.Metric = "ed"
	}
	if c.K == 0 {
		c.K = 4
	}
	if len(c.OracleCs) == 0 {
		c.OracleCs = []float64{4, 6}
	}
	return c
}

// EstimatorRow is one dataset's outcome.
type EstimatorRow struct {
	Dataset    string
	TrueF      float64
	EstimatedC float64
	F1AtEst    float64
	BestOracle float64 // best F1 across the oracle thresholds
}

// EstimatorResult is the experiment outcome.
type EstimatorResult struct {
	Rows []EstimatorRow
}

// EstimatorAccuracy runs the Section 4.3 heuristic end to end: phase 1,
// estimate c from the NG column and the true duplicate fraction, solve,
// and compare the F1 against solving at the oracle thresholds.
func EstimatorAccuracy(cfg EstimatorConfig) (*EstimatorResult, error) {
	cfg = cfg.withDefaults()
	res := &EstimatorResult{}
	for _, name := range cfg.Datasets {
		ds, err := loadDataset(name, cfg.Size, cfg.Seed)
		if err != nil {
			return nil, err
		}
		keys := ds.Keys()
		metric, err := distance.ByName(cfg.Metric, keys)
		if err != nil {
			return nil, err
		}
		idx, err := buildIndex(keys, metric, false)
		if err != nil {
			return nil, err
		}
		rel, err := core.ComputeNN(idx, core.Cut{MaxSize: cfg.K}, core.DefaultP, core.Phase1Options{})
		if err != nil {
			return nil, err
		}
		f := ds.DuplicateFraction()
		c, err := core.EstimateSNThreshold(rel.NGValues(), f, core.EstimateOptions{})
		if err != nil {
			return nil, err
		}
		solveAt := func(cVal float64) (float64, error) {
			groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: cfg.K}, Agg: core.AggMax, C: cVal})
			if err != nil {
				return 0, err
			}
			return eval.PrecisionRecall(groups, ds.Truth).F1(), nil
		}
		f1Est, err := solveAt(c)
		if err != nil {
			return nil, err
		}
		bestOracle := 0.0
		for _, oc := range cfg.OracleCs {
			f1, err := solveAt(oc)
			if err != nil {
				return nil, err
			}
			if f1 > bestOracle {
				bestOracle = f1
			}
		}
		res.Rows = append(res.Rows, EstimatorRow{
			Dataset: ds.Name, TrueF: f, EstimatedC: c, F1AtEst: f1Est, BestOracle: bestOracle,
		})
	}
	return res, nil
}

// Format renders the estimator table.
func (r *EstimatorResult) Format() string {
	var b strings.Builder
	b.WriteString("SN-threshold estimation (Sec. 4.3)\n")
	fmt.Fprintf(&b, "  %-12s %-8s %-8s %-10s %-10s\n", "dataset", "f", "est c", "F1(est)", "F1(oracle)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %-8.3f %-8.3g %-10.3f %-10.3f\n",
			row.Dataset, row.TrueF, row.EstimatedC, row.F1AtEst, row.BestOracle)
	}
	return b.String()
}

// SpreadConfig parameterizes the Section 5.1 spread observation: DE_S
// points concentrate in PR space while DE_D points spread.
type SpreadConfig struct {
	Dataset string
	Size    int
	Seed    int64
	Metric  string
	C       float64
}

// SpreadRow summarizes one curve's scatter.
type SpreadRow struct {
	Curve          string
	RecallRange    float64
	PrecisionRange float64
}

// SpreadResult is the spread comparison.
type SpreadResult struct {
	Dataset string
	Rows    []SpreadRow
}

// ParamSpread measures the PR scatter of the DE_S(K) sweep against the
// DE_D(θ) sweep. The paper explains the difference: NN lists for the size
// cut depend only on K (group-size mix changes slowly with K), while the
// θ cut changes the neighbor lists themselves.
func ParamSpread(cfg SpreadConfig) (*SpreadResult, error) {
	if cfg.Dataset == "" {
		cfg.Dataset = "restaurants"
	}
	if cfg.C == 0 {
		cfg.C = 4
	}
	pr, err := PRCurves(PRConfig{
		Dataset: cfg.Dataset, Size: cfg.Size, Seed: cfg.Seed, Metric: cfg.Metric,
		Cs: []float64{cfg.C},
	})
	if err != nil {
		return nil, err
	}
	res := &SpreadResult{Dataset: pr.Dataset}
	for i := range pr.Curves {
		c := &pr.Curves[i]
		if c.Name == "thr" {
			continue
		}
		rr, prng := eval.Spread(c)
		res.Rows = append(res.Rows, SpreadRow{Curve: c.Name, RecallRange: rr, PrecisionRange: prng})
	}
	return res, nil
}

// Format renders the spread table.
func (r *SpreadResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: PR-point spread of the parameter sweeps (Sec. 5.1)\n", r.Dataset)
	fmt.Fprintf(&b, "  %-14s %-14s %-14s\n", "curve", "recall range", "precision range")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %-14.3f %-14.3f\n", row.Curve, row.RecallRange, row.PrecisionRange)
	}
	return b.String()
}
