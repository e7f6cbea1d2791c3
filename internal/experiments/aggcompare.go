package experiments

import (
	"fmt"
	"strings"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/eval"
)

// AggConfig parameterizes the Figure 7 reproduction: DE_S and DE_D under
// the Max, Avg, and Max2 aggregation functions on the Restaurants dataset.
type AggConfig struct {
	Dataset string
	Size    int
	Seed    int64
	Metric  string
	C       float64
	Ks      []int
	Thetas  []float64
}

func (c AggConfig) withDefaults() AggConfig {
	if c.Dataset == "" {
		c.Dataset = "restaurants"
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
	if c.C == 0 {
		c.C = 4
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{2, 3, 4, 5, 6}
	}
	if len(c.Thetas) == 0 {
		for i := 1; i <= 12; i++ {
			c.Thetas = append(c.Thetas, 0.5*float64(i)/12)
		}
	}
	return c
}

// AggResult holds one curve per (formulation, aggregation) pair.
type AggResult struct {
	Dataset string
	Curves  []eval.Curve
}

// AggComparison reproduces Figure 7: aggregation functions yield nearly
// identical precision-recall behaviour because most duplicate groups have
// size 2 (where Max, Avg, and Max2 see the same two growths).
func AggComparison(cfg AggConfig) (*AggResult, error) {
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
	idx, err := buildIndex(keys, metric, false)
	if err != nil {
		return nil, err
	}
	maxK := cfg.Ks[len(cfg.Ks)-1]
	maxTheta := cfg.Thetas[len(cfg.Thetas)-1]
	relS, err := core.ComputeNN(idx, core.Cut{MaxSize: maxK}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}
	relD, err := core.ComputeNN(idx, core.Cut{Diameter: maxTheta}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}

	res := &AggResult{Dataset: ds.Name}
	for _, agg := range []core.Agg{core.AggMax, core.AggAvg, core.AggMax2} {
		sCurve := eval.Curve{Name: fmt.Sprintf("DE_S:%s", agg)}
		for _, k := range cfg.Ks {
			rel := relS.TruncateSize(k)
			groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: k}, Agg: agg, C: cfg.C})
			if err != nil {
				return nil, err
			}
			pr := eval.PrecisionRecall(groups, ds.Truth)
			pr.Param = float64(k)
			sCurve.Points = append(sCurve.Points, pr)
		}
		sCurve.SortByRecall()
		res.Curves = append(res.Curves, sCurve)

		dCurve := eval.Curve{Name: fmt.Sprintf("DE_D:%s", agg)}
		for _, theta := range cfg.Thetas {
			rel := relD.TruncateDiameter(theta)
			groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{Diameter: theta}, Agg: agg, C: cfg.C})
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

// Format renders the Figure 7 series.
func (r *AggResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: precision vs recall by aggregation function (Fig. 7)\n", r.Dataset)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "  %s\n", c.Name)
		for _, p := range c.Points {
			fmt.Fprintf(&b, "    %s\n", p.String())
		}
	}
	return b.String()
}

// MaxPairwiseF1Gap returns the largest difference in best-F1 between any
// two aggregation curves of the same formulation — the quantity Figure 7
// shows to be small.
func (r *AggResult) MaxPairwiseF1Gap() float64 {
	best := map[string]float64{}
	for i := range r.Curves {
		c := &r.Curves[i]
		fam := strings.SplitN(c.Name, ":", 2)[0]
		f1 := c.MaxF1()
		if cur, ok := best[fam+"|max"]; !ok || f1 > cur {
			best[fam+"|max"] = f1
		}
		if cur, ok := best[fam+"|min"]; !ok || f1 < cur {
			best[fam+"|min"] = f1
		}
	}
	gap := 0.0
	for _, fam := range []string{"DE_S", "DE_D"} {
		if g := best[fam+"|max"] - best[fam+"|min"]; g > gap {
			gap = g
		}
	}
	return gap
}
