package experiments

import (
	"fmt"
	"strings"

	"fuzzydup/internal/baseline"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/eval"
	"fuzzydup/internal/nnindex"
)

// PRConfig parameterizes the precision-recall comparison of the paper's
// main quality figures: DE_S(K) and DE_D(θ) at SN thresholds c ∈ Cs
// against the single-linkage threshold baseline, on one dataset under one
// metric.
type PRConfig struct {
	// Dataset names the relation ("media", ..., or "table1").
	Dataset string
	// Size and Seed drive the generator.
	Size int
	Seed int64
	// Metric is "ed", "fms", "cosine", or "jaccard".
	Metric string
	// Cs are the SN thresholds (default {4, 6}).
	Cs []float64
	// Ks is the DE_S sweep (default 2..8).
	Ks []int
	// Thetas is the DE_D and thr sweep (default 16-point grid to 0.6).
	Thetas []float64
	// Agg is the SN aggregation (default Max).
	Agg core.Agg
	// UseQGram selects the probabilistic index instead of the exact one.
	UseQGram bool
}

func (c PRConfig) withDefaults() PRConfig {
	if c.Size == 0 {
		c.Size = 800
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Metric == "" {
		c.Metric = "ed"
	}
	if len(c.Cs) == 0 {
		c.Cs = []float64{4, 6}
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 3, 4, 5, 6, 7, 8}
	}
	if len(c.Thetas) == 0 {
		for i := 1; i <= 16; i++ {
			c.Thetas = append(c.Thetas, 0.6*float64(i)/16)
		}
	}
	return c
}

// PRResult is the outcome: one curve per algorithm configuration.
type PRResult struct {
	Dataset string
	Metric  string
	N       int
	Curves  []eval.Curve
}

// PRCurves runs the comparison. Phase 1 runs twice (once per cut family);
// every sweep point reuses the shared NN relation.
func PRCurves(cfg PRConfig) (*PRResult, error) {
	cfg = cfg.withDefaults()
	ds, err := loadDataset(cfg.Dataset, cfg.Size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := ds.Keys()
	metric, err := distance.ByName(cfg.Metric, keys)
	if err != nil {
		return nil, err
	}
	idx, err := buildIndex(keys, metric, cfg.UseQGram)
	if err != nil {
		return nil, err
	}

	maxK := 0
	for _, k := range cfg.Ks {
		if k > maxK {
			maxK = k
		}
	}
	maxTheta := 0.0
	for _, t := range cfg.Thetas {
		if t > maxTheta {
			maxTheta = t
		}
	}

	relS, err := core.ComputeNN(idx, core.Cut{MaxSize: maxK}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}
	relD, err := core.ComputeNN(idx, core.Cut{Diameter: maxTheta}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}

	res := &PRResult{Dataset: ds.Name, Metric: cfg.Metric, N: ds.Len()}

	// Baseline: single-linkage over the threshold graph.
	thrLists := make([][]nnindex.Neighbor, len(relD.Rows))
	for i, row := range relD.Rows {
		thrLists[i] = row.NNList
	}
	thr := eval.Curve{Name: "thr"}
	for _, theta := range cfg.Thetas {
		groups := baseline.SingleLinkage(ds.Len(), thrLists, theta)
		pr := eval.PrecisionRecall(groups, ds.Truth)
		pr.Param = theta
		thr.Points = append(thr.Points, pr)
	}
	thr.SortByRecall()
	res.Curves = append(res.Curves, thr)

	for _, c := range cfg.Cs {
		sCurve := eval.Curve{Name: fmt.Sprintf("DE_S c=%g", c)}
		for _, k := range cfg.Ks {
			rel := relS.TruncateSize(k)
			groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: k}, Agg: cfg.Agg, C: c})
			if err != nil {
				return nil, err
			}
			pr := eval.PrecisionRecall(groups, ds.Truth)
			pr.Param = float64(k)
			sCurve.Points = append(sCurve.Points, pr)
		}
		sCurve.SortByRecall()
		res.Curves = append(res.Curves, sCurve)

		dCurve := eval.Curve{Name: fmt.Sprintf("DE_D c=%g", c)}
		for _, theta := range cfg.Thetas {
			rel := relD.TruncateDiameter(theta)
			groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{Diameter: theta}, Agg: cfg.Agg, C: c})
			if err != nil {
				return nil, err
			}
			pr := eval.PrecisionRecall(groups, ds.Truth)
			pr.Param = theta
			dCurve.Points = append(dCurve.Points, pr)
		}
		dCurve.SortByRecall()
		res.Curves = append(res.Curves, dCurve)
	}
	return res, nil
}

// Format renders the curves as the paper's precision-vs-recall series.
func (r *PRResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, n=%d): precision vs recall\n", r.Dataset, r.Metric, r.N)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "  %s\n", c.Name)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "    %s\n", p.String())
		}
	}
	return b.String()
}

// BestDEPrecisionGain summarizes the headline comparison: the mean
// precision advantage of the best DE curve over thr across the recall
// levels both reach.
func (r *PRResult) BestDEPrecisionGain(grid []float64) float64 {
	var thr *eval.Curve
	for i := range r.Curves {
		if r.Curves[i].Name == "thr" {
			thr = &r.Curves[i]
		}
	}
	if thr == nil {
		return 0
	}
	best := 0.0
	first := true
	for i := range r.Curves {
		c := &r.Curves[i]
		if c.Name == "thr" {
			continue
		}
		g := eval.DominanceGain(c, thr, grid)
		if first || g > best {
			best = g
			first = false
		}
	}
	return best
}
