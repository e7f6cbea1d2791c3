package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fuzzydup/internal/nnindex"
)

func TestSQLPartitionMatchesInMemoryTable1(t *testing.T) {
	idx := table1Index()
	for _, prob := range []Problem{
		{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4},
		{Cut: Cut{MaxSize: 5}, Agg: AggAvg, C: 6},
		{Cut: Cut{Diameter: 0.4}, Agg: AggMax, C: 4},
		{Cut: Cut{Diameter: 0.3}, Agg: AggMax2, C: 6},
	} {
		mem, _, err := Solve(idx, prob, Phase1Options{})
		if err != nil {
			t.Fatal(err)
		}
		sqlGroups, _, _, err := SolveSQL(idx, prob, Phase1Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(SortGroups(mem), SortGroups(sqlGroups)) {
			t.Errorf("prob %+v: SQL and in-memory partitions differ\nmem: %v\nsql: %v",
				prob, mem, sqlGroups)
		}
	}
}

func TestSQLPartitionMatchesInMemoryRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		d, _ := clusteredMatrix(rng, []int{2, 3, 1, 4, 2, 1, 2})
		idx := matrixIndex(len(d), func(i, j int) float64 { return d[i][j] })
		for _, prob := range []Problem{
			{Cut: Cut{MaxSize: 4}, Agg: AggMax, C: 5},
			{Cut: Cut{Diameter: 0.2}, Agg: AggMax, C: 5},
		} {
			mem, _, err := Solve(idx, prob, Phase1Options{})
			if err != nil {
				t.Fatal(err)
			}
			sqlGroups, _, _, err := SolveSQL(idx, prob, Phase1Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(SortGroups(mem), SortGroups(sqlGroups)) {
				t.Fatalf("trial %d prob %+v: partitions differ\nmem: %v\nsql: %v",
					trial, prob, mem, sqlGroups)
			}
		}
	}
}

func TestSQLPartitionWithExtensions(t *testing.T) {
	// Exclude predicate and minimality must behave identically through SQL.
	pos := []float64{0, 0.01, 0.10, 0.11, 0.20, 0.21}
	idx := matrixIndex(len(pos), func(i, j int) float64 {
		d := pos[i] - pos[j]
		if d < 0 {
			d = -d
		}
		return d
	})
	prob := Problem{Cut: Cut{MaxSize: 6}, Agg: AggMax, C: 3, MinimalCompact: true}
	mem, _, err := Solve(idx, prob, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlGroups, _, _, err := SolveSQL(idx, prob, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(SortGroups(mem), SortGroups(sqlGroups)) {
		t.Errorf("minimality differs: mem %v sql %v", mem, sqlGroups)
	}

	probEx := Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4,
		Exclude: func(a, b int) bool { return a+b == 1 }} // forbids (0,1)
	memEx, _, err := Solve(integersIndex(), probEx, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlEx, _, _, err := SolveSQL(integersIndex(), probEx, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(SortGroups(memEx), SortGroups(sqlEx)) {
		t.Errorf("exclude differs: mem %v sql %v", memEx, sqlEx)
	}
}

func TestSQLNGDistribution(t *testing.T) {
	idx := integersIndex()
	_, _, runner, err := SolveSQL(idx, Problem{Cut: Cut{MaxSize: 3}, Agg: AggMax, C: 4}, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := runner.NGDistributionSQL()
	if err != nil {
		t.Fatal(err)
	}
	// Growths from TestComputeNNIntegers: six tuples at ng=2, one at ng=3.
	if hist[2] != 6 || hist[3] != 1 {
		t.Errorf("NG histogram = %v", hist)
	}
}

func TestCSFlags(t *testing.T) {
	// Figure 6's example: tuples 1, 5, 10, 15 with neighbor lists making
	// {1, 5, 10, 15} a compact set of size 4.
	l1 := []int{10, 5, 15, 99}
	l5 := []int{1, 15, 10, 98}
	got := csFlags(1, l1, 5, l5)
	// CS2: {1,10} vs {5,1} -> 0. CS3: {1,10,5} vs {5,1,15} -> 0.
	// CS4: {1,10,5,15} vs {5,1,15,10} -> 1. CS5: includes 99 vs 98 -> 0.
	if got != "0010" {
		t.Errorf("csFlags = %q, want 0010", got)
	}
	// Mutual nearest pair: CS2 = 1.
	if got := csFlags(3, []int{7}, 7, []int{3}); got != "1" {
		t.Errorf("pair flags = %q", got)
	}
	// Empty lists yield no flags.
	if got := csFlags(1, nil, 2, nil); got != "" {
		t.Errorf("empty flags = %q", got)
	}
}

func TestEncodeDecodeIDList(t *testing.T) {
	lists := [][]int{nil, {5}, {3, 17, 42}}
	for _, want := range lists {
		enc := encodeIDList(neighborsFromIDs(want))
		got, err := decodeIDList(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("round trip %v -> %q -> %v", want, enc, got)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("round trip %v -> %v", want, got)
			}
		}
	}
	if _, err := decodeIDList("3,x,5"); err == nil {
		t.Error("bad list accepted")
	}
}

func TestPureSQLCSPairsForK2(t *testing.T) {
	// The paper notes that with the NN-List expanded into one column per
	// neighbor, CSPairs needs only standard SQL. Demonstrate for K=2:
	// CS2 (mutual nearest neighbors) is a plain join predicate.
	idx := integersIndex()
	rel, err := ComputeNN(idx, Cut{MaxSize: 2}, 2, Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewSQLRunner()
	db := r.DB()
	if _, err := db.Exec("CREATE TABLE nn_wide (id INT, nn1 INT, ng INT)"); err != nil {
		t.Fatal(err)
	}
	for id, row := range rel.Rows {
		nn1 := -1
		if len(row.NNList) > 0 {
			nn1 = row.NNList[0].ID
		}
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO nn_wide VALUES (%d, %d, %d)", id, nn1, row.NG)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`SELECT a.id, b.id FROM nn_wide a, nn_wide b
		WHERE a.id < b.id AND a.nn1 = b.id AND b.nn1 = a.id
		ORDER BY a.id`)
	if err != nil {
		t.Fatal(err)
	}
	// Mutual nearest pairs of the integers example: (0,1), (3,4), (5,6).
	want := [][2]int64{{0, 1}, {3, 4}, {5, 6}}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].Int != w[0] || res.Rows[i][1].Int != w[1] {
			t.Errorf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestBuildCSPairsFastMatchesSelfJoin(t *testing.T) {
	for _, idx := range []*nnindex.Exact{integersIndex(), table1Index()} {
		for _, cut := range []Cut{{MaxSize: 4}, {Diameter: 0.35}} {
			rel, err := ComputeNN(idx, cut, 2, Phase1Options{})
			if err != nil {
				t.Fatal(err)
			}
			slow := NewSQLRunner()
			if err := slow.LoadNNRelation(rel); err != nil {
				t.Fatal(err)
			}
			if err := slow.BuildCSPairs(); err != nil {
				t.Fatal(err)
			}
			fast := NewSQLRunner()
			if err := fast.LoadNNRelation(rel); err != nil {
				t.Fatal(err)
			}
			if err := fast.BuildCSPairsFast(); err != nil {
				t.Fatal(err)
			}
			q := "SELECT id1, id2, ng1, ng2, cs FROM cspairs ORDER BY id1, id2"
			a, err := slow.DB().Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fast.DB().Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("cut %v: %d vs %d rows", cut, len(a.Rows), len(b.Rows))
			}
			for i := range a.Rows {
				if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
					t.Fatalf("cut %v row %d: %v vs %v", cut, i, a.Rows[i], b.Rows[i])
				}
			}
			// The fast path feeds the same partitioning step.
			prob := Problem{Cut: cut, Agg: AggMax, C: 4}
			ga, err := slow.Partition(prob)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := fast.Partition(prob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ga, gb) {
				t.Fatalf("cut %v: partitions differ", cut)
			}
		}
	}
}

func TestPureSQLCSPairsMatchesUDFPath(t *testing.T) {
	// The paper's Size-K remark: with the NN list expanded into K columns,
	// CSPairs needs only standard SQL. The generated CASE expressions must
	// produce exactly the flags the UDF path computes.
	const k = 4
	for _, idx := range []*nnindex.Exact{integersIndex(), table1Index()} {
		rel, err := ComputeNN(idx, Cut{MaxSize: k}, 2, Phase1Options{})
		if err != nil {
			t.Fatal(err)
		}
		r := NewSQLRunner()
		if err := r.LoadNNRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := r.BuildCSPairs(); err != nil {
			t.Fatal(err)
		}
		udfRes, err := r.DB().Exec("SELECT id1, id2, cs FROM cspairs ORDER BY id1, id2")
		if err != nil {
			t.Fatal(err)
		}
		udf := make(map[[2]int]string, len(udfRes.Rows))
		for _, row := range udfRes.Rows {
			udf[[2]int{int(row[0].Int), int(row[1].Int)}] = row[2].Str
		}

		if err := r.LoadNNRelationWide(rel, k); err != nil {
			t.Fatal(err)
		}
		if err := r.BuildCSPairsPureSQL(k); err != nil {
			t.Fatal(err)
		}
		wide, err := r.WideFlags(k)
		if err != nil {
			t.Fatal(err)
		}

		// Same pair universe.
		if len(udf) != len(wide) {
			t.Fatalf("pair counts differ: udf %d vs wide %d", len(udf), len(wide))
		}
		bit := func(s string, j int) byte {
			if j-2 < len(s) {
				return s[j-2]
			}
			return '0'
		}
		for pair, uf := range udf {
			wf, ok := wide[pair]
			if !ok {
				t.Fatalf("pair %v missing from wide flags", pair)
			}
			for j := 2; j <= k; j++ {
				if bit(uf, j) != bit(wf, j) {
					t.Fatalf("pair %v CS%d: udf %q vs wide %q", pair, j, uf, wf)
				}
			}
		}
	}
}

func TestSolveSQLValidation(t *testing.T) {
	idx := integersIndex()
	if _, _, _, err := SolveSQL(idx, Problem{Cut: Cut{}, C: 4}, Phase1Options{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

// neighborsFromIDs builds a neighbor list with the given IDs (distances
// irrelevant for the encoding round trip).
func neighborsFromIDs(ids []int) []nnindex.Neighbor {
	out := make([]nnindex.Neighbor, len(ids))
	for i, id := range ids {
		out[i] = nnindex.Neighbor{ID: id}
	}
	return out
}
