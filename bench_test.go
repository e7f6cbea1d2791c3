package fuzzydup

// One benchmark per table/figure of the paper's evaluation, as indexed in
// DESIGN.md. Each bench drives the same experiment code cmd/experiments
// runs and reports the headline quantity of its figure as a custom metric,
// so `go test -bench . -benchmem` regenerates the whole evaluation:
//
//	BenchmarkTable1Motivation   — Table 1 end to end
//	BenchmarkPRCurvesEdit       — Fig. 10-family (PR under edit distance)
//	BenchmarkPRCurvesFMS        — Fig. 11-family (PR under fms)
//	BenchmarkFig7Aggregations   — Fig. 7 (Max / Avg / Max2)
//	BenchmarkFig8BFOrdering     — Fig. 8 (BF vs random lookup order)
//	BenchmarkFig9Scalability    — Fig. 9 (phase running times vs n)
//	BenchmarkParamSpread        — Sec. 5.1 spread observation
//	BenchmarkEstimateC          — Sec. 4.3 threshold estimation
//	BenchmarkAblationCriteria   — CS/SN criteria ablation (beyond paper)
//	BenchmarkAblationIndex      — exact vs probabilistic index (beyond paper)

import (
	"testing"

	"fuzzydup/internal/eval"
	"fuzzydup/internal/experiments"
)

func BenchmarkTable1Motivation(b *testing.B) {
	d, err := New(table1(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.GroupsBySize(3, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPR runs the PR comparison over the series-bearing datasets and
// reports the mean precision gain of DE over the threshold baseline.
func benchPR(b *testing.B, metric string) {
	b.Helper()
	grid := eval.RecallGrid(0.3, 0.7, 5)
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = 0
		n := 0
		for _, name := range []string{"media", "birdscott", "restaurants"} {
			res, err := experiments.PRCurves(experiments.PRConfig{
				Dataset: name, Size: 500, Seed: 2, Metric: metric,
			})
			if err != nil {
				b.Fatal(err)
			}
			gain += res.BestDEPrecisionGain(grid)
			n++
		}
		gain /= float64(n)
	}
	b.ReportMetric(gain, "precision-gain")
}

func BenchmarkPRCurvesEdit(b *testing.B) { benchPR(b, "ed") }

func BenchmarkPRCurvesFMS(b *testing.B) { benchPR(b, "fms") }

func BenchmarkFig7Aggregations(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AggComparison(experiments.AggConfig{Size: 500, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		gap = res.MaxPairwiseF1Gap()
	}
	b.ReportMetric(gap, "agg-F1-gap")
}

func BenchmarkFig8BFOrdering(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BFOrdering(experiments.BFConfig{
			Size: 4000, Seed: 2, PoolFrames: []int{64, 96, 112},
		})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.ThroughputGain(64)
	}
	b.ReportMetric(gain, "bf-throughput-gain")
}

func BenchmarkFig9Scalability(b *testing.B) {
	var exponent float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Scalability(experiments.ScaleConfig{
			Sizes: []int{500, 1000, 2000, 4000}, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		exponent = res.Phase1GrowthExponent()
	}
	b.ReportMetric(exponent, "phase1-growth-exp")
}

func BenchmarkParamSpread(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ParamSpread(experiments.SpreadConfig{Size: 500, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		var sMax, dMax float64
		for _, row := range res.Rows {
			if len(row.Curve) >= 4 && row.Curve[:4] == "DE_S" && row.RecallRange > sMax {
				sMax = row.RecallRange
			}
			if len(row.Curve) >= 4 && row.Curve[:4] == "DE_D" && row.RecallRange > dMax {
				dMax = row.RecallRange
			}
		}
		if sMax > 0 {
			ratio = dMax / sMax
		} else {
			ratio = dMax
		}
	}
	b.ReportMetric(ratio, "spread-ratio")
}

func BenchmarkEstimateC(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.EstimatorAccuracy(experiments.EstimatorConfig{
			Size: 500, Seed: 2, Datasets: []string{"media", "restaurants"},
		})
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, row := range res.Rows {
			if row.BestOracle > 0 && row.F1AtEst/row.BestOracle < worst {
				worst = row.F1AtEst / row.BestOracle
			}
		}
	}
	b.ReportMetric(worst, "est-vs-oracle-F1")
}

func BenchmarkAblationCriteria(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CriteriaAblation("media", 500, 2, 4, 4, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		var full, csOnly float64
		for _, row := range res.Rows {
			switch row.Config {
			case "CS+SN (full)":
				full = row.Precision
			case "CS only (c=inf)":
				csOnly = row.Precision
			}
		}
		delta = full - csOnly
	}
	b.ReportMetric(delta, "sn-precision-lift")
}

func BenchmarkAblationIndex(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.IndexAblation("restaurants", 400, 2, 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		gap = res.ExactF1 - res.QGramF1
	}
	b.ReportMetric(gap, "exact-vs-qgram-F1-gap")
}

func BenchmarkAblationBlocking(b *testing.B) {
	var leak float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BlockingAblation("media", 400, 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Scheme == "multi-key" {
				leak = 1 - row.NNCoverage
			}
		}
	}
	b.ReportMetric(leak, "nn-pair-leakage")
}

func BenchmarkRobustness(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Robustness("media", 400, 2, []int{2})
		if err != nil {
			b.Fatal(err)
		}
		margin = res.Rows[0].DEF1 - res.Rows[0].ThrF1
	}
	b.ReportMetric(margin, "de-f1-margin")
}

// BenchmarkSolveSizes profiles the end-to-end library path at a few
// relation sizes (complements Fig. 9, which times the phases separately).
func BenchmarkSolveSizes(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		b.Run(itoa(n), func(b *testing.B) {
			ds, err := experimentsDataset(n)
			if err != nil {
				b.Fatal(err)
			}
			d, err := New(ds, Options{Index: IndexQGram})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.GroupsBySize(3, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func experimentsDataset(n int) ([]Record, error) {
	// Reuse the Org generator through the experiments package's seam is
	// not exported; regenerate inline via the dataset package.
	return orgRecords(n)
}
