package fuzzydup

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"testing"
)

// table1 is the paper's motivating example.
func table1() []Record {
	return []Record{
		{"The Doors", "LA Woman"},
		{"Doors", "LA Woman"},
		{"The Beatles", "A Little Help from My Friends"},
		{"Beatles, The", "With A Little Help From My Friend"},
		{"Shania Twain", "Im Holdin on to Love"},
		{"Twian, Shania", "I'm Holding On To Love"},
		{"4 th Elemynt", "Ears/Eyes"},
		{"4 th Elemynt", "Ears/Eyes - Part II"},
		{"4th Elemynt", "Ears/Eyes - Part III"},
		{"4 th Elemynt", "Ears/Eyes - Part IV"},
		{"Aaliyah", "Are You Ready"},
		{"AC DC", "Are You Ready"},
		{"Bob Dylan", "Are You Ready"},
		{"Creed", "Are You Ready"},
	}
}

func TestQuickstartTable1(t *testing.T) {
	d, err := New(table1(), Options{Metric: MetricEdit})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 14 {
		t.Fatalf("Len = %d", d.Len())
	}
	groups, err := d.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	dups := groups.Duplicates()
	// The three true pairs are found. The "Ears/Eyes - Part II/III/IV"
	// tuples (7-9) also group: under edit distance they sit 1-2 edits
	// apart, textually indistinguishable from duplicates; what matters is
	// that neither tuple 6 nor the dense "Are You Ready" series (10-13)
	// is pulled in — the merges a global threshold cannot avoid.
	want := [][]int{{0, 1}, {2, 3}, {4, 5}, {7, 8, 9}}
	if !reflect.DeepEqual(dups, want) {
		t.Errorf("duplicates = %v, want %v", dups, want)
	}
	for _, g := range dups {
		for _, id := range g {
			if id == 6 || id >= 10 {
				t.Errorf("series tuple %d must stay single: %v", id, g)
			}
		}
	}
}

func TestGroupsByDiameter(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.GroupsByDiameter(0.35, 4)
	if err != nil {
		t.Fatal(err)
	}
	dups := groups.Duplicates()
	if len(dups) != 4 { // three true pairs plus the near-identical 7-9 parts
		t.Errorf("duplicates = %v", dups)
	}
	// Every emitted group's diameter stays below theta.
	for _, g := range dups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if dd := d.Distance(g[i], g[j]); dd >= 0.35 {
					t.Errorf("group %v diameter %v >= theta", g, dd)
				}
			}
		}
	}
}

func TestGroupsBySizeAndDiameter(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.GroupsBySizeAndDiameter(2, 0.35, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups.Duplicates() {
		if len(g) > 2 {
			t.Errorf("size bound violated: %v", g)
		}
		if dd := d.Distance(g[0], g[1]); dd >= 0.35 {
			t.Errorf("diameter bound violated: %v at %v", g, dd)
		}
	}
	if len(groups.Duplicates()) < 3 {
		t.Errorf("expected at least the three true pairs: %v", groups.Duplicates())
	}
}

func TestSingleLinkageBaselinePathology(t *testing.T) {
	// The baseline cannot reach full recall without false positives on the
	// Table 1 series; DE can. This is the paper's headline phenomenon
	// expressed through the public API.
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At a threshold high enough to catch the hardest duplicate pair
	// (Beatles, d ≈ 0.29), the series tuples merge too.
	groups, err := d.SingleLinkage(0.31)
	if err != nil {
		t.Fatal(err)
	}
	sawSeriesMerge := false
	for _, g := range groups.Duplicates() {
		for _, id := range g {
			if id >= 6 {
				sawSeriesMerge = true
			}
		}
	}
	if !sawSeriesMerge {
		t.Error("expected the threshold baseline to merge series tuples at high theta")
	}
}

func TestAllMetrics(t *testing.T) {
	for _, m := range []Metric{
		MetricEdit, MetricFMS, MetricCosine, MetricJaccard,
		MetricJaro, MetricJaroWinkler, MetricMongeElkan, MetricSoftTFIDF, MetricDamerau,
	} {
		d, err := New(table1(), Options{Metric: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		groups, err := d.GroupsBySize(3, 4)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		// The Doors pair is trivially close under every metric.
		found := false
		for _, g := range groups.Duplicates() {
			if len(g) == 2 && g[0] == 0 && g[1] == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Doors pair not found: %v", m, groups.Duplicates())
		}
	}
}

func TestCustomMetric(t *testing.T) {
	records := []Record{{"1"}, {"2"}, {"4"}, {"20"}, {"22"}, {"30"}, {"32"}}
	d, err := New(records, Options{CustomMetric: func(a, b string) float64 {
		x, _ := strconv.ParseFloat(a, 64)
		y, _ := strconv.ParseFloat(b, 64)
		diff := x - y
		if diff < 0 {
			diff = -diff
		}
		return diff / 100
	}})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups.Duplicates(), want) {
		t.Errorf("groups = %v, want %v", groups.Duplicates(), want)
	}
}

func TestApproximateIndexAgrees(t *testing.T) {
	exact, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := New(table1(), Options{Approximate: true})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := exact.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := approx.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ge, ga) {
		t.Errorf("exact %v vs approximate %v", ge, ga)
	}
}

func TestAllIndexesFindDoorsPair(t *testing.T) {
	for _, ix := range []Index{IndexExact, IndexQGram, IndexVPTree, IndexMinHash} {
		d, err := New(table1(), Options{Index: ix})
		if err != nil {
			t.Fatalf("%s: %v", ix, err)
		}
		groups, err := d.GroupsBySize(3, 4)
		if err != nil {
			t.Fatalf("%s: %v", ix, err)
		}
		found := false
		for _, g := range groups.Duplicates() {
			if len(g) == 2 && g[0] == 0 && g[1] == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Doors pair not found: %v", ix, groups.Duplicates())
		}
	}
	if _, err := New(table1(), Options{Index: "nope"}); err == nil {
		t.Error("unknown index accepted")
	}
}

func TestUseSQLAgrees(t *testing.T) {
	mem, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlD, err := New(table1(), Options{UseSQL: true})
	if err != nil {
		t.Fatal(err)
	}
	gm, err := mem.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := sqlD.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gm, gs) {
		t.Errorf("in-memory %v vs SQL %v", gm, gs)
	}
}

func TestEstimateCAndGrowths(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ngs, err := d.NeighborhoodGrowths()
	if err != nil {
		t.Fatal(err)
	}
	if len(ngs) != 14 {
		t.Fatalf("growths = %v", ngs)
	}
	// Series tuples (10-13) are denser than duplicate pairs.
	if ngs[10] < 4 || ngs[0] > 3 {
		t.Errorf("growth structure unexpected: %v", ngs)
	}
	c, err := d.EstimateC(6.0 / 14)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 1 {
		t.Errorf("estimated c = %v", c)
	}
}

func TestExcludeOption(t *testing.T) {
	d, err := New(table1(), Options{Exclude: func(a, b int) bool {
		return a == 0 || b == 0 // record 0 may never be grouped
	}})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups.Duplicates() {
		for _, id := range g {
			if id == 0 {
				t.Errorf("excluded record grouped: %v", g)
			}
		}
	}
}

func TestAggOptions(t *testing.T) {
	for _, a := range []Agg{AggMax, AggAvg, AggMax2} {
		d, err := New(table1(), Options{Agg: a})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.GroupsBySize(3, 4); err != nil {
			t.Errorf("agg %s: %v", a, err)
		}
	}
}

func TestSweepCacheConsistency(t *testing.T) {
	// Sweeping K and θ on one Deduper (cached phase 1) must equal fresh
	// Dedupers per parameter (uncached).
	shared, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 5, 4, 2} { // non-monotone order hits both cache paths
		fresh, err := New(table1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := shared.GroupsBySize(k, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.GroupsBySize(k, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("K=%d: cached %v vs fresh %v", k, a, b)
		}
	}
	for _, theta := range []float64{0.2, 0.4, 0.3} {
		fresh, err := New(table1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := shared.GroupsByDiameter(theta, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.GroupsByDiameter(theta, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("θ=%g: cached %v vs fresh %v", theta, a, b)
		}
	}
	// Combined cut through the same cache.
	a, err := shared.GroupsBySizeAndDiameter(2, 0.35, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.GroupsBySizeAndDiameter(2, 0.35, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("combined: cached %v vs fresh %v", a, b)
	}
}

func TestExplain(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The Doors pair: mutual nearest neighbors with sparse neighborhoods.
	e := d.Explain(0, 1, 3)
	if !e.MutualNN || e.RankAB != 1 || e.RankBA != 1 {
		t.Errorf("Doors pair explanation = %+v", e)
	}
	if e.Distance <= 0 || e.Distance > 0.3 {
		t.Errorf("distance = %v", e.Distance)
	}
	if e.MaxNG >= 4 {
		t.Errorf("Doors pair should pass SN at c=4: %+v", e)
	}
	// Two "Are You Ready" covers: close, but dense neighborhoods.
	e = d.Explain(10, 11, 3)
	if e.MaxNG < 4 {
		t.Errorf("series pair should fail SN at c=4: %+v", e)
	}
	// A pair that is nowhere near each other: not mutual (13 ranks 0 on
	// the reverse side — tuple 0 is not among its covers).
	e = d.Explain(0, 13, 3)
	if e.MutualNN || e.RankBA != 0 {
		t.Errorf("far pair explanation = %+v", e)
	}
	if e.Distance <= 0.5 {
		t.Errorf("far distance = %v", e.Distance)
	}
}

func TestParallelOptionAgrees(t *testing.T) {
	serial, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(table1(), Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := serial.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := parallel.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, gp) {
		t.Errorf("parallel differs: %v vs %v", gs, gp)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty relation accepted")
	}
	if _, err := New(table1(), Options{Metric: "nope"}); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := New(table1(), Options{Agg: "median"}); err == nil {
		t.Error("unknown aggregation accepted")
	}
}

func TestSolveErrors(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GroupsBySize(1, 4); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := d.GroupsBySize(3, 1); err == nil {
		t.Error("c=1 accepted")
	}
	if _, err := d.GroupsByDiameter(1.5, 4); err == nil {
		t.Error("theta=1.5 accepted")
	}
}

func TestMinimalCompactOption(t *testing.T) {
	// Three tight pairs that fuse into one compact six-set without the
	// minimality option (cf. core tests).
	records := []Record{{"0"}, {"1"}, {"100"}, {"101"}, {"200"}, {"201"}}
	metric := func(a, b string) float64 {
		x, _ := strconv.ParseFloat(a, 64)
		y, _ := strconv.ParseFloat(b, 64)
		diff := x - y
		if diff < 0 {
			diff = -diff
		}
		return diff / 1000
	}
	merged, err := New(records, Options{CustomMetric: metric})
	if err != nil {
		t.Fatal(err)
	}
	gm, err := merged.GroupsBySize(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gm.Duplicates()) != 1 {
		t.Fatalf("expected one merged group: %v", gm)
	}
	minimal, err := New(records, Options{CustomMetric: metric, MinimalCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	gmin, err := minimal.GroupsBySize(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gmin.Duplicates()) != 3 {
		t.Errorf("expected three minimal pairs: %v", gmin.Duplicates())
	}
}

func TestGroupsCtxCancellation(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.GroupsBySizeCtx(ctx, 3, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("size cut with cancelled ctx: %v", err)
	}
	if _, err := d.GroupsByDiameterCtx(ctx, 0.3, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("diameter cut with cancelled ctx: %v", err)
	}
	if _, err := d.GroupsBySizeAndDiameterCtx(ctx, 3, 0.3, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("combined cut with cancelled ctx: %v", err)
	}
	// The aborted runs must not have poisoned the phase-1 cache: a live
	// context solves normally and matches a fresh Deduper's answer.
	got, err := d.GroupsBySizeCtx(context.Background(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groups after cancelled attempts = %v, want %v", got, want)
	}
}

func TestCacheStatsSweep(t *testing.T) {
	d, err := New(table1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if computes, hits := d.CacheStats(); computes != 0 || hits != 0 {
		t.Fatalf("fresh deduper stats = %d, %d", computes, hits)
	}
	// Widest first: one compute, then two cache hits.
	for _, k := range []int{4, 3, 2} {
		if _, err := d.GroupsBySize(k, 4); err != nil {
			t.Fatal(err)
		}
	}
	if computes, hits := d.CacheStats(); computes != 1 || hits != 2 {
		t.Errorf("after descending sweep: computes = %d, hits = %d, want 1, 2", computes, hits)
	}
	// Widening the cut recomputes once.
	if _, err := d.GroupsBySize(6, 4); err != nil {
		t.Fatal(err)
	}
	if computes, hits := d.CacheStats(); computes != 2 || hits != 2 {
		t.Errorf("after widening: computes = %d, hits = %d, want 2, 2", computes, hits)
	}
}
