package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// ScaleConfig parameterizes the Figure 9 reproduction: running time of
// both phases as the Org relation grows.
type ScaleConfig struct {
	Sizes  []int
	Seed   int64
	K      int
	C      float64
	Metric string
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 2000, 4000, 8000}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.C == 0 {
		c.C = 4
	}
	if c.Metric == "" {
		c.Metric = "ed"
	}
	return c
}

// ScaleRow is one point of the Figure 9 log-log plot: running times of
// both phases, normalized by the phase-1 time at the smallest size.
type ScaleRow struct {
	N          int
	Phase1Norm float64
	Phase2Norm float64
	Phase1     time.Duration
	Phase2     time.Duration
	Groups     int
}

// ScaleResult is the Figure 9 series.
type ScaleResult struct {
	Rows []ScaleRow
}

// Scalability measures both phases over growing Org relations. The paper's
// claim is linearity of both phases in the relation size (with an
// effective NN index); the normalized columns make the slope visible.
func Scalability(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{}
	var base time.Duration
	for _, n := range cfg.Sizes {
		ds, err := loadDataset("org", n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		keys := ds.Keys()
		metric, err := distance.ByName(cfg.Metric, keys)
		if err != nil {
			return nil, err
		}
		// Fixed per-query work: MaxDF and MaxCandidates must not scale
		// with n, or phase 1 turns superlinear for reasons unrelated to
		// the algorithm (candidate gathering cost, not lookups).
		idx, err := nnindex.NewQGram(keys, metric, nnindex.QGramConfig{
			MaxDF:         250,
			MaxCandidates: 128,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rel, err := core.ComputeNN(idx, core.Cut{MaxSize: cfg.K}, core.DefaultP, core.Phase1Options{})
		if err != nil {
			return nil, err
		}
		p1 := time.Since(start)

		start = time.Now()
		groups, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: cfg.K}, Agg: core.AggMax, C: cfg.C})
		if err != nil {
			return nil, err
		}
		p2 := time.Since(start)

		if base == 0 {
			base = p1
			if base == 0 {
				base = time.Nanosecond
			}
		}
		res.Rows = append(res.Rows, ScaleRow{
			N:          ds.Len(),
			Phase1:     p1,
			Phase2:     p2,
			Phase1Norm: float64(p1) / float64(base),
			Phase2Norm: float64(p2) / float64(base),
			Groups:     len(groups),
		})
	}
	return res, nil
}

// Format renders the Figure 9 series (normalized running times; both axes
// of the paper's plot are logarithmic, so ratios are what matter).
func (r *ScaleResult) Format() string {
	var b strings.Builder
	b.WriteString("Scalability (Fig. 9): normalized running times\n")
	fmt.Fprintf(&b, "  %-8s %-12s %-12s %-12s %-12s\n", "n", "phase1", "phase2", "p1(norm)", "p2(norm)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-8d %-12v %-12v %-12.3f %-12.4f\n",
			row.N, row.Phase1.Round(time.Millisecond), row.Phase2.Round(time.Millisecond),
			row.Phase1Norm, row.Phase2Norm)
	}
	return b.String()
}

// Phase1GrowthExponent estimates the log-log slope of phase 1 between the
// smallest and largest measurement (1.0 = linear).
func (r *ScaleResult) Phase1GrowthExponent() float64 {
	if len(r.Rows) < 2 {
		return 0
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	dn := float64(last.N) / float64(first.N)
	dt := float64(last.Phase1) / float64(first.Phase1)
	if dn <= 0 || dt <= 0 || dn == 1 {
		return 0
	}
	return math.Log(dt) / math.Log(dn)
}
