package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// matrixIndex builds an exact index over n tuples whose pairwise distances
// are given explicitly; keys are the tuple IDs as strings.
func matrixIndex(n int, d func(i, j int) float64) *nnindex.Exact {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa(i)
	}
	m := distance.Func{MetricName: "matrix", F: func(a, b string) float64 {
		i, _ := strconv.Atoi(a)
		j, _ := strconv.Atoi(b)
		if i == j {
			return 0
		}
		return d(i, j)
	}}
	return nnindex.NewExact(keys, m)
}

// integersIndex is the Section 3 example: values {1, 2, 4, 20, 22, 30, 32}
// under absolute difference (scaled into [0, 1]).
func integersIndex() *nnindex.Exact {
	vals := []float64{1, 2, 4, 20, 22, 30, 32}
	return matrixIndex(len(vals), func(i, j int) float64 {
		d := vals[i] - vals[j]
		if d < 0 {
			d = -d
		}
		return d / 100
	})
}

// table1Index is the paper's Table 1 media example under edit distance.
func table1Index() *nnindex.Exact {
	keys := []string{
		"The Doors LA Woman",
		"Doors LA Woman",
		"The Beatles A Little Help from My Friends",
		"Beatles, The With A Little Help From My Friend",
		"Shania Twain Im Holdin on to Love",
		"Twian, Shania I'm Holding On To Love",
		"4 th Elemynt Ears/Eyes",
		"4 th Elemynt Ears/Eyes - Part II",
		"4th Elemynt Ears/Eyes - Part III",
		"4 th Elemynt Ears/Eyes - Part IV",
		"Aaliyah Are You Ready",
		"AC DC Are You Ready",
		"Bob Dylan Are You Ready",
		"Creed Are You Ready",
	}
	return nnindex.NewExact(keys, distance.Edit{})
}

func TestAggApply(t *testing.T) {
	tests := []struct {
		agg  Agg
		ngs  []int
		want float64
	}{
		{AggMax, []int{2, 5, 3}, 5},
		{AggMax, []int{7}, 7},
		{AggAvg, []int{2, 4}, 3},
		{AggAvg, []int{3}, 3},
		{AggMax2, []int{2, 5, 3}, 3},
		{AggMax2, []int{5, 5, 2}, 5},
		{AggMax2, []int{7}, 7},
		{AggMax2, []int{1, 9}, 1},
	}
	for _, tt := range tests {
		if got := tt.agg.Apply(tt.ngs); got != tt.want {
			t.Errorf("%v.Apply(%v) = %v, want %v", tt.agg, tt.ngs, got, tt.want)
		}
	}
}

func TestAggApplyEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AggMax.Apply(nil)
}

func TestAggString(t *testing.T) {
	if AggMax.String() != "max" || AggAvg.String() != "avg" || AggMax2.String() != "max2" {
		t.Error("agg names wrong")
	}
	if !strings.Contains(Agg(9).String(), "9") {
		t.Error("unknown agg string")
	}
}

func TestParseAgg(t *testing.T) {
	for name, want := range map[string]Agg{
		"": AggMax, "max": AggMax, "avg": AggAvg, "max2": AggMax2,
	} {
		got, err := ParseAgg(name)
		if err != nil || got != want {
			t.Errorf("ParseAgg(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAgg("median"); err == nil {
		t.Error("ParseAgg accepted an unknown aggregation")
	}
}

func TestCutValidate(t *testing.T) {
	tests := []struct {
		cut Cut
		ok  bool
	}{
		{Cut{MaxSize: 2}, true},
		{Cut{MaxSize: 100}, true},
		{Cut{Diameter: 0.5}, true},
		{Cut{MaxSize: 3, Diameter: 0.5}, true}, // combined cut (Sec. 3)
		{Cut{MaxSize: 1}, false},
		{Cut{MaxSize: 1, Diameter: 0.5}, false},
		{Cut{}, false},
		{Cut{Diameter: 1.5}, false},
		{Cut{Diameter: -0.5}, false},
	}
	for _, tt := range tests {
		err := tt.cut.Validate()
		if (err == nil) != tt.ok {
			t.Errorf("Cut %+v validate = %v, want ok=%v", tt.cut, err, tt.ok)
		}
	}
	if (Cut{MaxSize: 3}).String() != "DE_S(3)" {
		t.Error("size cut string")
	}
	if !strings.HasPrefix((Cut{Diameter: 0.25}).String(), "DE_D") {
		t.Error("diameter cut string")
	}
}

func TestProblemValidate(t *testing.T) {
	ok := Problem{Cut: Cut{MaxSize: 3}, C: 4}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := []Problem{
		{Cut: Cut{MaxSize: 3}, C: 1},        // c must exceed 1
		{Cut: Cut{MaxSize: 3}, C: 0},        // zero c
		{Cut: Cut{}, C: 4},                  // no cut
		{Cut: Cut{MaxSize: 3}, C: 4, P: -1}, // negative growth factor
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestComputeNNIntegers(t *testing.T) {
	idx := integersIndex()
	rel, err := ComputeNN(idx, Cut{MaxSize: 3}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 7 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
	// Tuple 0 (value 1): neighbors 1 (d .01), 2 (d .03), 3 (d .19).
	ids := func(row NNRow) []int {
		out := make([]int, len(row.NNList))
		for i, n := range row.NNList {
			out[i] = n.ID
		}
		return out
	}
	if got := ids(rel.Rows[0]); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("NN list of 0 = %v", got)
	}
	// Self-inclusive growths: value 1 -> 2; value 2 -> 2; value 4 -> 3
	// (sphere radius 0.04 contains values 1 and 2); the four outer values
	// (20, 22, 30, 32) -> 2 each.
	wantNG := []int{2, 2, 3, 2, 2, 2, 2}
	for i, want := range wantNG {
		if rel.Rows[i].NG != want {
			t.Errorf("ng(%d) = %d, want %d", i, rel.Rows[i].NG, want)
		}
	}
	if got := rel.NGValues(); !reflect.DeepEqual(got, wantNG) {
		t.Errorf("NGValues = %v", got)
	}
}

func TestComputeNNOrderIndependent(t *testing.T) {
	idx := table1Index()
	base, err := ComputeNN(idx, Cut{MaxSize: 4}, 2, Phase1Options{Order: OrderBF})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []LookupOrder{OrderRandom, OrderSequential} {
		rel, err := ComputeNN(idx, Cut{MaxSize: 4}, 2, Phase1Options{Order: order, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Rows, rel.Rows) {
			t.Errorf("order %v changed phase-1 output", order)
		}
	}
}

func TestComputeNNParallelMatchesSerial(t *testing.T) {
	idx := table1Index()
	serial, err := ComputeNN(idx, Cut{MaxSize: 4}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := ComputeNN(idx, Cut{MaxSize: 4}, 2, Phase1Options{Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Rows, par.Rows) {
			t.Fatalf("parallel=%d differs from serial", workers)
		}
	}
	// Diameter cut too.
	serialD, err := ComputeNN(idx, Cut{Diameter: 0.4}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	parD, err := ComputeNN(idx, Cut{Diameter: 0.4}, 2, Phase1Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialD.Rows, parD.Rows) {
		t.Fatal("parallel diameter phase 1 differs from serial")
	}
}

func TestComputeNNParallelRandomInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d, _ := clusteredMatrix(rng, []int{3, 2, 4, 2, 1, 2})
	idx := matrixIndex(len(d), func(i, j int) float64 { return d[i][j] })
	serial, err := ComputeNN(idx, Cut{MaxSize: 5}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ComputeNN(idx, Cut{MaxSize: 5}, 2, Phase1Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Rows, par.Rows) {
		t.Fatal("parallel differs from serial on random instance")
	}
}

func TestComputeNNProgress(t *testing.T) {
	idx := integersIndex()
	var calls []int
	_, err := ComputeNN(idx, Cut{MaxSize: 3}, 2, Phase1Options{
		Progress: func(done, total int) {
			if total != idx.Len() {
				t.Errorf("total = %d", total)
			}
			calls = append(calls, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != idx.Len() {
		t.Fatalf("progress called %d times", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress counts not monotone: %v", calls)
		}
	}
	// Parallel path: counts monotone, one call per tuple.
	var par []int
	var mu sync.Mutex
	_, err = ComputeNN(idx, Cut{MaxSize: 3}, 2, Phase1Options{
		Parallel: 4,
		Progress: func(done, total int) {
			mu.Lock()
			par = append(par, done)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != idx.Len() {
		t.Fatalf("parallel progress called %d times", len(par))
	}
}

func TestComputeNNValidation(t *testing.T) {
	idx := integersIndex()
	if _, err := ComputeNN(idx, Cut{}, 2, Phase1Options{}); err == nil {
		t.Error("invalid cut accepted")
	}
	if _, err := ComputeNN(idx, Cut{MaxSize: 3}, -1, Phase1Options{}); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := ComputeNN(idx, Cut{MaxSize: 3}, 2, Phase1Options{Order: LookupOrder(42)}); err == nil {
		t.Error("unknown order accepted")
	}
}

func TestPartitionIntegersIdeal(t *testing.T) {
	// The Section 3 "ideal" outcome: {1,2,4}, {20,22}, {30,32} — reachable
	// with a size cut K=3 and SN threshold c=4.
	idx := integersIndex()
	groups, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

func TestPartitionIntegersTighterC(t *testing.T) {
	// c=3 excludes value 4 (ng=3): the triple cannot form; {1,2} remains.
	idx := integersIndex()
	groups, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 3}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

func TestPartitionIntegersK2(t *testing.T) {
	// K=2 caps groups at pairs; 4 must stay single even though compact
	// with {1,2}.
	idx := integersIndex()
	groups, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 2}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

func TestPartitionIntegersDiameter(t *testing.T) {
	// DE_D(0.05): within 5 units. {1,2,4} has diameter 3 units = 0.03 < θ,
	// so the triple is allowed; pairs {20,22}, {30,32} likewise.
	idx := integersIndex()
	groups, _, err := Solve(idx, Problem{Cut: Cut{Diameter: 0.05}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	// DE_D(0.025): the triple's diameter (0.03) no longer fits; {1,2} only.
	groups, _, err = Solve(idx, Problem{Cut: Cut{Diameter: 0.025}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want = [][]int{{0, 1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

func TestPartitionCombinedCut(t *testing.T) {
	// Size and diameter together (Section 3's remark): with θ = 0.05 the
	// triple {1,2,4} fits the diameter, but K = 2 caps it at the pair.
	idx := integersIndex()
	groups, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 2, Diameter: 0.05}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	// With K = 3 the combined cut admits the triple again.
	groups, _, err = Solve(idx, Problem{Cut: Cut{MaxSize: 3, Diameter: 0.05}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want = [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	// And a tight diameter overrides the generous size bound.
	groups, _, err = Solve(idx, Problem{Cut: Cut{MaxSize: 5, Diameter: 0.025}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want = [][]int{{0, 1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	if (Cut{MaxSize: 3, Diameter: 0.05}).String() != "DE_SD(3, 0.05)" {
		t.Error("combined cut string")
	}
}

func TestSQLPartitionCombinedCut(t *testing.T) {
	idx := integersIndex()
	prob := Problem{Cut: Cut{MaxSize: 2, Diameter: 0.05}, Agg: AggMax, C: 4}
	mem, _, err := Solve(idx, prob, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlGroups, _, _, err := SolveSQL(idx, prob, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mem, sqlGroups) {
		t.Errorf("combined cut: mem %v vs sql %v", mem, sqlGroups)
	}
}

func TestPartitionTable1(t *testing.T) {
	// The motivating example: DE must find the three duplicate pairs and
	// leave the confusable series alone.
	idx := table1Index()
	groups, rel, err := Solve(idx, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	inSameGroup := func(a, b int) bool {
		for _, g := range groups {
			has := func(x int) bool {
				for _, id := range g {
					if id == x {
						return true
					}
				}
				return false
			}
			if has(a) {
				return has(b)
			}
		}
		return false
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}} {
		if !inSameGroup(pair[0], pair[1]) {
			t.Errorf("duplicate pair %v not grouped; groups = %v", pair, groups)
		}
	}
	// The "Are You Ready" series (10-13) is dense: self-inclusive growth at
	// least 4, so SN(max, 4) keeps each a singleton.
	for id := 10; id <= 13; id++ {
		if rel.Rows[id].NG < 4 {
			t.Errorf("ng(%d) = %d, want >= 4", id, rel.Rows[id].NG)
		}
		for _, g := range groups {
			if len(g) > 1 {
				for _, m := range g {
					if m == id {
						t.Errorf("series tuple %d grouped: %v", id, g)
					}
				}
			}
		}
	}
}

func TestDEDDiameterGuarantee(t *testing.T) {
	// Random instance: every emitted DE_D group must have diameter < θ.
	rng := rand.New(rand.NewSource(21))
	const n = 40
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			d[i][j], d[j][i] = v, v
		}
	}
	idx := matrixIndex(n, func(i, j int) float64 { return d[i][j] })
	const theta = 0.3
	groups, _, err := Solve(idx, Problem{Cut: Cut{Diameter: theta}, Agg: AggMax, C: 10}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if dd := Diameter(idx, g); dd >= theta {
			t.Errorf("group %v diameter %v >= θ %v", g, dd, theta)
		}
	}
}

func TestPartitionIsPartition(t *testing.T) {
	idx := table1Index()
	for _, cut := range []Cut{{MaxSize: 4}, {Diameter: 0.4}} {
		groups, _, err := Solve(idx, Problem{Cut: cut, Agg: AggAvg, C: 4}, Phase1Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, g := range groups {
			for _, id := range g {
				if seen[id] {
					t.Fatalf("cut %v: tuple %d in two groups", cut, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != idx.Len() {
			t.Errorf("cut %v: %d tuples covered, want %d", cut, len(seen), idx.Len())
		}
	}
}

func TestExcludePredicate(t *testing.T) {
	idx := integersIndex()
	// Forbid grouping tuples 0 and 1 (values 1 and 2): the triple and the
	// pair {0,1} are both ruled out; no valid group containing both
	// remains, and since every closure of 0 or 1 starts with the other,
	// both end up singletons.
	prob := Problem{
		Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4,
		Exclude: func(a, b int) bool {
			return (a == 0 && b == 1) || (a == 1 && b == 0)
		},
	}
	groups, _, err := Solve(idx, prob, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1}, {2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

func TestMinimalCompactSplitting(t *testing.T) {
	// The Section 4.4.2 scenario: three duplicate pairs that together form
	// one big compact set (the whole relation is trivially compact).
	// Positions: 0/0.01, 0.10/0.11, 0.20/0.21.
	pos := []float64{0, 0.01, 0.10, 0.11, 0.20, 0.21}
	idx := matrixIndex(len(pos), func(i, j int) float64 {
		d := pos[i] - pos[j]
		if d < 0 {
			d = -d
		}
		return d
	})
	// Without minimality: one six-tuple group (K=6 allows it, every ng=2).
	merged, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 6}, Agg: AggMax, C: 3}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || len(merged[0]) != 6 {
		t.Fatalf("expected one merged group, got %v", merged)
	}
	// With minimality: split into the three pairs.
	minimal, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 6}, Agg: AggMax, C: 3, MinimalCompact: true}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}}
	if !reflect.DeepEqual(minimal, want) {
		t.Errorf("minimal groups = %v, want %v", minimal, want)
	}
}

func TestMinimalCompactLeavesRealGroups(t *testing.T) {
	// A genuine triple must survive the minimality pass: {1,2,4} contains
	// the compact pair {1,2}, but no second disjoint non-trivial compact
	// subset, so it is already minimal.
	idx := integersIndex()
	groups, _, err := Solve(idx, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4, MinimalCompact: true}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
}

func TestPartitionCutMismatch(t *testing.T) {
	idx := integersIndex()
	rel, err := ComputeNN(idx, Cut{MaxSize: 3}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(rel, Problem{Cut: Cut{MaxSize: 4}, Agg: AggMax, C: 4}); err == nil {
		t.Error("cut mismatch accepted")
	}
	if _, err := Partition(rel, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 0.5}); err == nil {
		t.Error("invalid problem accepted")
	}
}

func TestZeroDistanceTwins(t *testing.T) {
	// Exact duplicates (distance 0) should pair up, not blow up.
	keys := []string{"same", "same", "other thing entirely"}
	idx := nnindex.NewExact(keys, distance.Edit{})
	groups, rel, err := Solve(idx, Problem{Cut: Cut{MaxSize: 2}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2}}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	if rel.Rows[0].NG != 2 {
		t.Errorf("ng of zero-distance twin = %d, want 2", rel.Rows[0].NG)
	}
}

func TestSNHoldsSingleton(t *testing.T) {
	rows := []NNRow{{NG: 99}}
	if !SNHolds(rows, []int{0}, AggMax, 2) {
		t.Error("singleton must satisfy SN regardless of growth")
	}
}

func TestIsCompactSetShortList(t *testing.T) {
	rows := []NNRow{
		{NNList: []nnindex.Neighbor{{ID: 1, Dist: 0.1}}},
		{NNList: []nnindex.Neighbor{{ID: 0, Dist: 0.1}}},
	}
	if !IsCompactSet(rows, 0, 2) {
		t.Error("mutual pair should be compact at j=2")
	}
	if IsCompactSet(rows, 0, 3) {
		t.Error("j beyond list length should be false")
	}
	if IsCompactSet(rows, 0, 1) {
		t.Error("j=1 is trivial and excluded")
	}
}

func TestEstimateSNThreshold(t *testing.T) {
	// 30% duplicates at ng=2, 60% series uniques spiking at ng=5, 10% at 8.
	var ngs []int
	for i := 0; i < 30; i++ {
		ngs = append(ngs, 2)
	}
	for i := 0; i < 60; i++ {
		ngs = append(ngs, 5)
	}
	for i := 0; i < 10; i++ {
		ngs = append(ngs, 8)
	}
	c, err := EstimateSNThreshold(ngs, 0.3, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c != 5 {
		t.Errorf("estimated c = %v, want 5 (the unique-tuple spike)", c)
	}
	// Duplicates (ng=2) stay below c; uniques (ng=5) are excluded.
	if !(2 < c && !(5 < c)) {
		t.Errorf("threshold semantics broken: c = %v", c)
	}
}

func TestEstimateSNThresholdFallback(t *testing.T) {
	// No spike in the window: smooth growth distribution.
	var ngs []int
	for v := 2; v <= 21; v++ {
		for i := 0; i < 5; i++ {
			ngs = append(ngs, v)
		}
	}
	c, err := EstimateSNThreshold(ngs, 0.3, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// (0.35)-percentile of 2..21 over 100 tuples: value 8; fallback adds 1.
	if c != 9 {
		t.Errorf("fallback c = %v, want 9", c)
	}
}

func TestEstimateSNThresholdErrors(t *testing.T) {
	if _, err := EstimateSNThreshold(nil, 0.3, EstimateOptions{}); err == nil {
		t.Error("empty NG column accepted")
	}
	if _, err := EstimateSNThreshold([]int{2, 3}, 0, EstimateOptions{}); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := EstimateSNThreshold([]int{2, 3}, 1, EstimateOptions{}); err == nil {
		t.Error("f=1 accepted")
	}
}

func TestEstimateThenSolveIntegers(t *testing.T) {
	// End-to-end §4.3 usage: estimate c from the NG column, then solve.
	idx := integersIndex()
	rel, err := ComputeNN(idx, Cut{MaxSize: 3}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 of 7 tuples are "duplicates" in the ideal triple reading; f≈0.43.
	c, err := EstimateSNThreshold(rel.NGValues(), 0.43, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c <= 1 {
		t.Fatalf("estimated c = %v", c)
	}
	groups, err := Partition(rel, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: c})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever c was estimated, the output must be a valid partition with
	// the two far pairs intact.
	if len(groups) < 3 {
		t.Errorf("groups = %v", groups)
	}
}

func TestLookupOrderString(t *testing.T) {
	if OrderBF.String() != "bf" || OrderRandom.String() != "random" || OrderSequential.String() != "sequential" {
		t.Error("order names wrong")
	}
	if !strings.Contains(LookupOrder(7).String(), "7") {
		t.Error("unknown order string")
	}
}
