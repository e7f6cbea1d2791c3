package incremental

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// numScale normalizes the numeric test metric into [0, 1]; key values
// stay below it.
const numScale = 100000

// numMetric reads keys as integers and uses |a-b|/numScale — cheap,
// deterministic float arithmetic (so tie-breaking paths are exercised
// reliably), and corpus-independent.
var numMetric = distance.Func{MetricName: "absdiff", F: func(a, b string) float64 {
	x, _ := strconv.Atoi(a)
	y, _ := strconv.Atoi(b)
	return math.Abs(float64(x)-float64(y)) / numScale
}}

// referenceGroups solves the live dataset from scratch with the batch
// pipeline (exact index, sequential order) under the engine's problem.
func referenceGroups(t *testing.T, keys []string, cfg Config) [][]int {
	t.Helper()
	prob := core.Problem{
		Cut:            cfg.Cut,
		Agg:            cfg.Agg,
		C:              cfg.C,
		P:              cfg.P,
		MinimalCompact: cfg.MinimalCompact,
		Exclude:        cfg.Exclude,
	}
	if len(keys) == 0 {
		return nil
	}
	idx := nnindex.NewExact(keys, cfg.Metric)
	groups, _, err := core.Solve(idx, prob, core.Phase1Options{Order: core.OrderSequential})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return groups
}

// denseGroups remaps the engine's partition over stable slot IDs onto the
// dense 0..m-1 IDs of the live keys in ascending slot order — the ID
// space a from-scratch solve of the same keys uses. The mapping is
// monotone, so NN-list tie-breaking and greedy anchor order agree.
func denseGroups(e *Engine) ([][]int, []string) {
	ids := e.IDs()
	dense := make(map[int]int, len(ids))
	keys := make([]string, len(ids))
	for i, id := range ids {
		dense[id] = i
		keys[i], _ = e.Key(id)
	}
	var out [][]int
	for _, g := range e.Groups() {
		m := make([]int, len(g))
		for i, id := range g {
			m[i] = dense[id]
		}
		out = append(out, m)
	}
	return out, keys
}

func checkEquivalent(t *testing.T, e *Engine, cfg Config, context string) {
	t.Helper()
	got, keys := denseGroups(e)
	want := referenceGroups(t, keys, cfg)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental partition diverged from batch solve\nkeys: %v\ngot:  %v\nwant: %v",
			context, keys, got, want)
	}
	st := e.LastRepair()
	if st.Op != "build" && st.DirtyLookups > st.Live+1 {
		t.Fatalf("%s: repair relooked up %d rows with only %d live", context, st.DirtyLookups, st.Live)
	}
}

// checkInvariants validates the reverse-watch bookkeeping: watch and rev
// are exact mirrors, dead slots hold no state, and every watch target is
// live.
func checkInvariants(t *testing.T, e *Engine, context string) {
	t.Helper()
	for v := range e.keys {
		if !e.live[v] {
			if len(e.watch[v]) != 0 || len(e.rev[v]) != 0 {
				t.Fatalf("%s: dead slot %d holds watch/rev state", context, v)
			}
			if e.rows[v].NNList != nil {
				t.Fatalf("%s: dead slot %d holds an NN row", context, v)
			}
			continue
		}
		for _, w := range e.watch[v] {
			if !e.live[w] {
				t.Fatalf("%s: live %d watches dead %d", context, v, w)
			}
			if _, ok := e.rev[w][v]; !ok {
				t.Fatalf("%s: watch edge %d->%d missing from rev", context, v, w)
			}
		}
		for u := range e.rev[v] {
			found := false
			for _, w := range e.watch[u] {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: rev edge %d<-%d has no watch edge", context, v, u)
			}
		}
	}
}

// checkRowsMatchBatch verifies the engine's phase-1 rows are bit-for-bit
// the rows a from-scratch ComputeNN produces on the live keys.
func checkRowsMatchBatch(t *testing.T, e *Engine, context string) {
	t.Helper()
	ids := e.IDs()
	if len(ids) == 0 {
		return
	}
	dense := make(map[int]int, len(ids))
	keys := make([]string, len(ids))
	for i, id := range ids {
		dense[id] = i
		keys[i] = e.keys[id]
	}
	idx := nnindex.NewExact(keys, e.metric.Unwrap())
	rel, err := core.ComputeNN(idx, e.prob.Cut, e.prob.P, core.Phase1Options{Order: core.OrderSequential})
	if err != nil {
		t.Fatalf("%s: batch phase 1: %v", context, err)
	}
	for i, id := range ids {
		row := e.rows[id]
		want := rel.Rows[i]
		if row.NG != want.NG {
			t.Fatalf("%s: slot %d ng = %d, batch says %d", context, id, row.NG, want.NG)
		}
		if len(row.NNList) != len(want.NNList) {
			t.Fatalf("%s: slot %d list length %d, batch says %d", context, id, len(row.NNList), len(want.NNList))
		}
		for j, nb := range row.NNList {
			if dense[nb.ID] != want.NNList[j].ID || nb.Dist != want.NNList[j].Dist {
				t.Fatalf("%s: slot %d neighbor %d = (%d, %g), batch says (%d, %g)",
					context, id, j, dense[nb.ID], nb.Dist, want.NNList[j].ID, want.NNList[j].Dist)
			}
		}
	}
}

// clusteredKeys synthesizes integer keys with planted duplicate clusters
// plus uniform noise, the shape the CS/SN criteria are designed for.
func clusteredKeys(r *rand.Rand, n int) []string {
	keys := make([]string, 0, n)
	for len(keys) < n {
		if r.Intn(3) == 0 {
			// a tight cluster of 2-4 near-duplicates
			base := r.Intn(100000)
			size := 2 + r.Intn(3)
			for s := 0; s < size && len(keys) < n; s++ {
				keys = append(keys, strconv.Itoa(base+r.Intn(3)))
			}
		} else {
			keys = append(keys, strconv.Itoa(r.Intn(100000)))
		}
	}
	return keys
}

func randomOp(t *testing.T, r *rand.Rand, e *Engine) string {
	ids := e.IDs()
	op := r.Intn(3)
	if len(ids) == 0 {
		op = 0
	}
	switch op {
	case 0:
		v := strconv.Itoa(r.Intn(100000))
		id := e.Insert(v)
		return fmt.Sprintf("insert %q -> %d", v, id)
	case 1:
		id := ids[r.Intn(len(ids))]
		if err := e.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		return fmt.Sprintf("delete %d", id)
	default:
		id := ids[r.Intn(len(ids))]
		v := strconv.Itoa(r.Intn(100000))
		if err := e.Update(id, v); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
		return fmt.Sprintf("update %d -> %q", id, v)
	}
}

// TestEquivalenceRandomOps is the acceptance property test: across many
// randomized insert/delete/update sequences under both the DE_S(K) and
// DE_D(θ) cuts, the incremental partition after every single operation is
// exactly the from-scratch batch partition of the live dataset.
func TestEquivalenceRandomOps(t *testing.T) {
	sequences := 250 // x2 cuts = 500 sequences
	opsPer := 8
	if testing.Short() {
		sequences = 40
	}
	cuts := []struct {
		name string
		cut  core.Cut
	}{
		{"size", core.Cut{MaxSize: 4}},
		{"diameter", core.Cut{Diameter: 40.0 / numScale}},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			for seq := 0; seq < sequences; seq++ {
				r := rand.New(rand.NewSource(int64(seq)*7919 + 17))
				cfg := Config{
					Metric:         numMetric,
					Cut:            tc.cut,
					C:              2 + 2*r.Float64(),
					MinimalCompact: seq%3 == 0,
				}
				n := 20 + r.Intn(30)
				e, err := New(clusteredKeys(r, n), cfg)
				if err != nil {
					t.Fatalf("seq %d: New: %v", seq, err)
				}
				checkEquivalent(t, e, cfg, fmt.Sprintf("seq %d build", seq))
				for o := 0; o < opsPer; o++ {
					desc := randomOp(t, r, e)
					checkEquivalent(t, e, cfg, fmt.Sprintf("seq %d op %d (%s)", seq, o, desc))
				}
			}
		})
	}
}

// TestPhase1StateAfterOps drills below the partition: after every
// operation the NN rows themselves (lists, distances, growths) must match
// a batch phase 1, and the reverse-watch index must mirror the watch sets.
func TestPhase1StateAfterOps(t *testing.T) {
	for _, cut := range []core.Cut{{MaxSize: 3}, {Diameter: 25.0 / numScale}} {
		r := rand.New(rand.NewSource(99))
		cfg := Config{Metric: numMetric, Cut: cut, C: 3}
		e, err := New(clusteredKeys(r, 30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e, "build")
		checkRowsMatchBatch(t, e, "build")
		for o := 0; o < 40; o++ {
			desc := randomOp(t, r, e)
			ctx := fmt.Sprintf("%v op %d (%s)", cut, o, desc)
			checkInvariants(t, e, ctx)
			checkRowsMatchBatch(t, e, ctx)
		}
	}
}

// TestCombinedCut exercises the Section 3 combined form (both MaxSize and
// Diameter set).
func TestCombinedCut(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3, Diameter: 30.0 / numScale}, C: 3}
	e, err := New(clusteredKeys(r, 25), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, e, cfg, "build")
	for o := 0; o < 15; o++ {
		desc := randomOp(t, r, e)
		checkEquivalent(t, e, cfg, fmt.Sprintf("op %d (%s)", o, desc))
	}
}

// TestExcludePredicate checks the constraining predicate flows through
// repairs. Insert-only, so stable IDs and dense IDs coincide and the same
// predicate describes both solves.
func TestExcludePredicate(t *testing.T) {
	exclude := func(a, b int) bool { return a%2 != b%2 }
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 4}, C: 4, Exclude: exclude}
	e, err := New([]string{"10", "11", "12", "500"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, e, cfg, "build")
	for i, v := range []string{"13", "11", "501", "12"} {
		e.Insert(v)
		checkEquivalent(t, e, cfg, fmt.Sprintf("insert %d", i))
	}
}

// TestZeroDistanceDuplicates covers the exact-duplicate degenerate case:
// zero nearest-neighbor distance shrinks the growth sphere to the
// smallest positive radius (core.ZeroDistanceRadius).
func TestZeroDistanceDuplicates(t *testing.T) {
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 4}, C: 4}
	e, err := New([]string{"100", "100", "5000"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, e, cfg, "build")
	e.Insert("100")
	checkEquivalent(t, e, cfg, "insert twin")
	if err := e.Delete(0); err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, e, cfg, "delete twin")
	checkRowsMatchBatch(t, e, "delete twin")
}

// TestHugeSizeCut: a K beyond the corpus solves as K = n and must not
// size an allocation (an incremental dedupd job takes K from the client).
func TestHugeSizeCut(t *testing.T) {
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: math.MaxInt}, C: 4}
	e, err := New([]string{"100", "101", "5000"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, e, cfg, "build")
	e.Insert("102")
	checkEquivalent(t, e, cfg, "insert")
}

// TestEmptyAndSingleton covers the engine at and around zero records.
func TestEmptyAndSingleton(t *testing.T) {
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3}, C: 3}
	e, err := New(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g := e.Groups(); len(g) != 0 {
		t.Fatalf("empty engine has groups %v", g)
	}
	id := e.Insert("42")
	if got := e.Groups(); !reflect.DeepEqual(got, [][]int{{id}}) {
		t.Fatalf("singleton groups = %v", got)
	}
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	if g := e.Groups(); len(g) != 0 || e.Len() != 0 {
		t.Fatalf("after delete: groups %v len %d", g, e.Len())
	}
	checkInvariants(t, e, "emptied")
}

// TestSlotReuse pins the stable-ID contract: deleted slots are reused
// smallest-first, live slots never move.
func TestSlotReuse(t *testing.T) {
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3}, C: 3}
	e, err := New([]string{"1", "2", "3", "4"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(0); err != nil {
		t.Fatal(err)
	}
	if id := e.Insert("5"); id != 0 {
		t.Fatalf("first reuse got slot %d, want 0", id)
	}
	if id := e.Insert("6"); id != 2 {
		t.Fatalf("second reuse got slot %d, want 2", id)
	}
	if id := e.Insert("7"); id != 4 {
		t.Fatalf("fresh slot got %d, want 4", id)
	}
	if k, ok := e.Key(1); !ok || k != "2" {
		t.Fatalf("slot 1 = %q, %v; want 2, true", k, ok)
	}
}

// TestMutationErrors pins the error surface for bad IDs and bad configs.
func TestMutationErrors(t *testing.T) {
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3}, C: 3}
	e, err := New([]string{"1"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 5} {
		if err := e.Delete(id); err == nil {
			t.Fatalf("Delete(%d) succeeded", id)
		}
		if err := e.Update(id, "x"); err == nil {
			t.Fatalf("Update(%d) succeeded", id)
		}
	}
	if err := e.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(0); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := e.Update(0, "x"); err == nil {
		t.Fatal("update of dead slot succeeded")
	}
	if _, err := New(nil, Config{Cut: core.Cut{MaxSize: 3}, C: 3}); err == nil {
		t.Fatal("nil metric accepted")
	}
	if _, err := New(nil, Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3}, C: 0.5}); err == nil {
		t.Fatal("c <= 1 accepted")
	}
	if _, err := New(nil, Config{Metric: numMetric, C: 3}); err == nil {
		t.Fatal("empty cut accepted")
	}
}

// TestRepairLocality plants two far-apart clusters and verifies a repair
// in one never touches the other: the dirty set stays small and most
// groups are adopted, not re-evaluated.
func TestRepairLocality(t *testing.T) {
	var keys []string
	for c := 0; c < 20; c++ {
		base := c * 100000
		for s := 0; s < 3; s++ {
			keys = append(keys, strconv.Itoa(base+s))
		}
	}
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 4}, C: 4}
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Insert("1") // lands in cluster 0
	st := e.LastRepair()
	if st.DirtyLookups > 8 {
		t.Fatalf("insert into one cluster relooked up %d of %d rows", st.DirtyLookups, st.Live)
	}
	if st.Adopted < 15 {
		t.Fatalf("only %d groups adopted (reevaluated %d) after a local insert", st.Adopted, st.Reevaluated)
	}
	checkEquivalent(t, e, cfg, "cluster insert")
}

// TestRepairStatsShape sanity-checks the reported counters.
func TestRepairStatsShape(t *testing.T) {
	cfg := Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3}, C: 3}
	e, err := New([]string{"1", "2", "3"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.LastRepair(); st.Op != "build" || st.Live != 3 || st.DirtyLookups != 3 {
		t.Fatalf("build stats = %+v", st)
	}
	e.Insert("4")
	st := e.LastRepair()
	if st.Op != "insert" || st.ID != 3 || st.Live != 4 {
		t.Fatalf("insert stats = %+v", st)
	}
	if st.DistanceCalls <= 0 {
		t.Fatalf("insert reported %d distance calls", st.DistanceCalls)
	}
	if err := e.Update(0, "10"); err != nil {
		t.Fatal(err)
	}
	if st := e.LastRepair(); st.Op != "update" || st.ID != 0 {
		t.Fatalf("update stats = %+v", st)
	}
	if err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	if st := e.LastRepair(); st.Op != "delete" || st.ID != 1 || st.Live != 3 {
		t.Fatalf("delete stats = %+v", st)
	}
	if e.DistanceCalls() <= 0 {
		t.Fatal("cumulative distance calls not tracked")
	}
}

// FuzzIncrementalEquivalence drives the engine with fuzzer-chosen
// operation streams and checks the partition equals a from-scratch batch
// solve after every operation, under a cut derived from the input.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 12, 1, 0, 0, 11, 2, 1}, uint8(4), false)
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 0}, uint8(3), true)
	f.Add([]byte{0, 200, 0, 202, 0, 90, 2, 0, 1, 1}, uint8(0), false)
	f.Fuzz(func(t *testing.T, ops []byte, k uint8, minimal bool) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		cfg := Config{Metric: numMetric, C: 3, MinimalCompact: minimal}
		if k == 0 {
			cfg.Cut = core.Cut{Diameter: 15.0 / numScale}
		} else {
			cfg.Cut = core.Cut{MaxSize: 2 + int(k%5)}
		}
		e, err := New(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, val := ops[i]%3, int(ops[i+1])*3
			ids := e.IDs()
			if len(ids) == 0 {
				op = 0
			}
			switch op {
			case 0:
				e.Insert(strconv.Itoa(val))
			case 1:
				if err := e.Delete(ids[val%len(ids)]); err != nil {
					t.Fatal(err)
				}
			default:
				if err := e.Update(ids[val%len(ids)], strconv.Itoa(val)); err != nil {
					t.Fatal(err)
				}
			}
			got, keys := denseGroups(e)
			want := referenceGroups(t, keys, cfg)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: incremental %v != batch %v (keys %v)", i/2, got, want, keys)
			}
		}
	})
}
