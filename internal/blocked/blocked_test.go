package blocked

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"fuzzydup/internal/blocking"
	"fuzzydup/internal/core"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// numScale normalizes the numeric test metric into [0, 1]; key values
// stay below it.
const numScale = 1000000

// numMetric reads keys as integers and uses |a−b|/numScale. It is cheap,
// deterministic, and — unlike normalized edit distance — a true metric,
// so it exercises the pivot guard's triangle-inequality pruning soundly.
var numMetric = distance.Func{MetricName: "absdiff", F: func(a, b string) float64 {
	x, _ := strconv.Atoi(a)
	y, _ := strconv.Atoi(b)
	return math.Abs(float64(x)-float64(y)) / numScale
}}

// numKey renders a value as a zero-padded six-digit key, so FirstNChars
// blocking correlates with numeric proximity (the realistic regime:
// blocking keys approximate the metric).
func numKey(v int) string { return fmt.Sprintf("%06d", v%numScale) }

// clusteredKeys builds a corpus of tight duplicate clusters amid uniform
// noise, zero-padded for key blocking.
func clusteredKeys(r *rand.Rand, n int) []string {
	keys := make([]string, 0, n)
	for len(keys) < n {
		if r.Intn(3) == 0 {
			base := r.Intn(numScale)
			size := 2 + r.Intn(3)
			for s := 0; s < size && len(keys) < n; s++ {
				keys = append(keys, numKey(base+r.Intn(3)))
			}
		} else {
			keys = append(keys, numKey(r.Intn(numScale)))
		}
	}
	return keys
}

// numStrategy blocks on the first three digits: values sharing a
// thousand-bucket co-block, cluster-straddling boundaries are left for
// the guard.
func numStrategy() Strategy {
	return Strategy{Keys: []blocking.KeyFunc{blocking.FirstNChars(3)}}
}

// referenceGroups is the monolithic ground truth: core.Solve on an exact
// index over the whole corpus.
func referenceGroups(t testing.TB, keys []string, prob core.Problem) [][]int {
	t.Helper()
	if len(keys) == 0 {
		return nil
	}
	idx := nnindex.NewExact(keys, numMetric)
	groups, _, err := core.Solve(idx, prob, core.Phase1Options{Order: core.OrderSequential})
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return groups
}

func checkEquivalent(t testing.TB, keys []string, prob core.Problem, strat Strategy, opts Options, context string) *Result {
	t.Helper()
	res, err := Solve(keys, numMetric, prob, strat, opts)
	if err != nil {
		t.Fatalf("%s: blocked solve: %v", context, err)
	}
	want := referenceGroups(t, keys, prob)
	if len(res.Groups) == 0 && len(want) == 0 {
		return res
	}
	if !reflect.DeepEqual(res.Groups, want) {
		t.Fatalf("%s: blocked partition diverged from core.Solve\nkeys: %v\ngot:  %v\nwant: %v",
			context, keys, res.Groups, want)
	}
	return res
}

// TestBlockedMatchesFullSolve is the central equivalence test: across
// cuts, aggregations, extensions, guard modes, and parallelism, the
// blocked partition must be bit-for-bit the monolithic one.
func TestBlockedMatchesFullSolve(t *testing.T) {
	exclude := func(a, b int) bool { return (a+b)%7 == 0 }
	probs := []core.Problem{
		{Cut: core.Cut{MaxSize: 3}, C: 3},
		{Cut: core.Cut{MaxSize: 5}, Agg: core.AggAvg, C: 2.5},
		{Cut: core.Cut{MaxSize: 4}, Agg: core.AggMax2, C: 3, MinimalCompact: true},
		{Cut: core.Cut{MaxSize: 3}, C: 3, Exclude: exclude},
		{Cut: core.Cut{Diameter: 10.0 / numScale}, C: 3},
		{Cut: core.Cut{Diameter: 40.0 / numScale}, C: 4, MinimalCompact: true},
		{Cut: core.Cut{MaxSize: 4, Diameter: 25.0 / numScale}, C: 3},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{17, 60, 200} {
			keys := clusteredKeys(rand.New(rand.NewSource(seed)), n)
			for pi, prob := range probs {
				for _, exhaustive := range []bool{false, true} {
					for _, par := range []int{1, 4} {
						ctx := fmt.Sprintf("seed=%d n=%d prob=%d exhaustive=%v par=%d", seed, n, pi, exhaustive, par)
						res := checkEquivalent(t, keys, prob, numStrategy(),
							Options{Parallel: par, Exhaustive: exhaustive}, ctx)
						if res.ForcedFull {
							t.Errorf("%s: fell back to a full solve", ctx)
						}
					}
				}
			}
		}
	}
}

// foldCorpus constructs an input where the pre-merge pass provably
// cannot see a required merge, so only the exact boundary guard can
// rescue equivalence. Record 0 sits at 500000, making the pivot-0
// projection f₀(x) = |x − 500000| fold the number line: decoys at
// 400000±3i project onto exactly the band between the projections of
// the true pair v = 600000 and u = 600045, crowding both records'
// candidate windows so neither ever measures the other. Under a
// diameter cut with θ just above their true distance, v and u must
// share a block — a fact only visible to the guard's sound pivot
// windows (or an exhaustive scan).
func foldCorpus() (keys []string, prob core.Problem, strat Strategy) {
	keys = append(keys, numKey(500000))
	for i := 1; i <= 14; i++ {
		keys = append(keys, numKey(400000-3*i), numKey(400000+3*i))
	}
	keys = append(keys, numKey(600000), numKey(600045))
	prob = core.Problem{Cut: core.Cut{Diameter: 100.0 / numScale}, C: 4}
	// Six-character keys are all distinct: every record seeds alone, so
	// nothing co-blocks by accident.
	strat = Strategy{Keys: []blocking.KeyFunc{blocking.FirstNChars(6)}}
	return keys, prob, strat
}

// TestBlockedGuardFires: on the fold corpus the guard must detect the
// hidden crossing neighborhood, merge, re-solve, and match core.Solve.
func TestBlockedGuardFires(t *testing.T) {
	keys, prob, strat := foldCorpus()
	res := checkEquivalent(t, keys, prob, strat, Options{}, "fold corpus")
	if res.BoundaryViolations == 0 {
		t.Fatalf("guard never fired on the fold corpus: %+v", res)
	}
	if res.Rounds < 2 || res.BoundaryResolves == 0 {
		t.Fatalf("expected a boundary re-solve round, got %+v", res)
	}
	if res.ForcedFull {
		t.Fatalf("fold corpus should converge without the full-solve fallback: %+v", res)
	}
}

// TestBlockedForcedFull starves the fold corpus of its re-solve round:
// with MaxRounds=1 the guard merge cannot be re-solved within budget,
// so the pipeline must fall back to one full exact solve — and still
// match the reference.
func TestBlockedForcedFull(t *testing.T) {
	keys, prob, strat := foldCorpus()
	res := checkEquivalent(t, keys, prob, strat, Options{MaxRounds: 1}, "forced full")
	if !res.ForcedFull {
		t.Fatalf("MaxRounds=1 should force a full solve on the fold corpus: %+v", res)
	}
	if res.Blocks != 1 || res.MaxBlock != len(keys) {
		t.Fatalf("forced full should end with one corpus-wide block, got %d blocks (max %d)", res.Blocks, res.MaxBlock)
	}
}

// TestBlockedDeterminism: the same input must yield identical results
// (including under high parallelism), and parallelism must not change
// the output. The census corpus never splits: its lone block's phase 1
// must fan out across the whole Parallel budget.
func TestBlockedDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name   string
		keys   []string
		metric distance.Metric
		prob   core.Problem
		strat  Strategy
		opts   Options
		lone   bool
	}{
		{
			name:   "clustered",
			keys:   clusteredKeys(rand.New(rand.NewSource(11)), 300),
			metric: numMetric,
			prob:   core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3},
			strat:  numStrategy(),
		},
		{
			name:   "census one block",
			keys:   dataset.Census(dataset.Config{Size: 300}).Keys(),
			metric: distance.Edit{},
			prob:   core.Problem{Cut: core.Cut{MaxSize: 4}, C: 4},
			strat:  DefaultStrategy(),
			opts:   Options{Exhaustive: true},
			lone:   true,
		},
	} {
		var first *Result
		for _, par := range []int{1, 4, 8, 4} {
			var stats core.Phase1Stats
			opts := tc.opts
			opts.Parallel, opts.Stats = par, &stats
			res, err := Solve(tc.keys, tc.metric, tc.prob, tc.strat, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.lone {
				if res.Blocks != 1 {
					t.Fatalf("%s: %d blocks, want one", tc.name, res.Blocks)
				}
				if got := stats.Workers.Load(); got != int32(par) {
					t.Fatalf("%s: parallel=%d ran the lone block's phase 1 on %d goroutines", tc.name, par, got)
				}
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res.Groups, first.Groups) {
				t.Fatalf("%s: parallel=%d changed the partition", tc.name, par)
			}
			if res.BlocksSolved != first.BlocksSolved || res.Rounds != first.Rounds ||
				res.BoundaryViolations != first.BoundaryViolations {
				t.Fatalf("%s: parallel=%d changed the pipeline counters: %+v vs %+v", tc.name, par, res, first)
			}
		}
	}
}

// TestBlockedContextCancel: a cancelled context aborts the solve with
// the context's error.
func TestBlockedContextCancel(t *testing.T) {
	keys := clusteredKeys(rand.New(rand.NewSource(5)), 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(keys, numMetric, core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3},
		numStrategy(), Options{Ctx: ctx, Parallel: 4})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestBlockedCallbackAndStats: the per-block callback fires once per
// block solve, and a shared Phase1Stats accumulates across the pool.
func TestBlockedCallbackAndStats(t *testing.T) {
	keys := clusteredKeys(rand.New(rand.NewSource(9)), 150)
	var calls, sized int
	var stats core.Phase1Stats
	res, err := Solve(keys, numMetric, core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3}, numStrategy(), Options{
		Parallel: 4,
		Stats:    &stats,
		OnBlockSolved: func(size int, d time.Duration) {
			calls++
			if size > 0 && d >= 0 {
				sized++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.BlocksSolved || sized != calls {
		t.Fatalf("callback fired %d times (well-formed %d), BlocksSolved = %d", calls, sized, res.BlocksSolved)
	}
	if stats.Lookups.Load() == 0 || stats.Probes.Load() == 0 {
		t.Fatalf("shared stats not accumulated: %d lookups, %d probes", stats.Lookups.Load(), stats.Probes.Load())
	}
	if res.GuardProbes == 0 {
		t.Fatal("guard probes not counted")
	}
}

// TestBlockedTinyCorpora: degenerate sizes must not panic and must match
// the reference.
func TestBlockedTinyCorpora(t *testing.T) {
	for _, prob := range []core.Problem{
		{Cut: core.Cut{MaxSize: 3}, C: 3},
		{Cut: core.Cut{Diameter: 0.5}, C: 3},
	} {
		res, err := Solve(nil, numMetric, prob, numStrategy(), Options{})
		if err != nil || len(res.Groups) != 0 {
			t.Fatalf("empty corpus: %v %v", res, err)
		}
		for n := 1; n <= 4; n++ {
			keys := make([]string, n)
			for i := range keys {
				keys[i] = numKey(i * 3)
			}
			checkEquivalent(t, keys, prob, numStrategy(), Options{}, fmt.Sprintf("n=%d", n))
		}
	}
}

// TestBlockedAllIdentical: the worst case for blocking — every record is
// the same — must stay linear-ish (early-exit guard) and correct.
func TestBlockedAllIdentical(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = numKey(42)
	}
	prob := core.Problem{Cut: core.Cut{MaxSize: 3}, C: 200}
	checkEquivalent(t, keys, prob, numStrategy(), Options{}, "all identical")
}

// TestBlockedInvalidProblem: validation errors surface before any work.
func TestBlockedInvalidProblem(t *testing.T) {
	if _, err := Solve([]string{"a"}, numMetric, core.Problem{}, Strategy{}, Options{}); err == nil {
		t.Fatal("empty cut accepted")
	}
	if _, err := Solve([]string{"a"}, numMetric, core.Problem{Cut: core.Cut{MaxSize: 3}, C: 0.5}, Strategy{}, Options{}); err == nil {
		t.Fatal("c <= 1 accepted")
	}
}

// TestBlockedTextCorpus runs real string metrics over a name corpus:
// Jaccard (a true metric) under the pivot guard, normalized edit
// distance under the exhaustive guard (it is not guaranteed to satisfy
// the triangle inequality, so pivot pruning would be unsound).
func TestBlockedTextCorpus(t *testing.T) {
	names := []string{
		"john smith", "jon smith", "john smyth",
		"mary johnson", "mary jonson",
		"robert brown", "roberto brown", "rob brown",
		"alice cooper", "alyce cooper",
		"zhang wei", "zang wei",
		"singleton entry", "another unique", "third unique one",
		"kate winslet", "cate winslet",
		"peter parker", "petter parker",
	}
	for _, tc := range []struct {
		metric     distance.Metric
		exhaustive bool
	}{
		{distance.Jaccard{}, false},
		{distance.Edit{}, true},
	} {
		for _, prob := range []core.Problem{
			{Cut: core.Cut{MaxSize: 3}, C: 4},
			{Cut: core.Cut{Diameter: 0.4}, C: 4},
		} {
			res, err := Solve(names, tc.metric, prob, DefaultStrategy(),
				Options{Exhaustive: tc.exhaustive, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			idx := nnindex.NewExact(names, tc.metric)
			want, _, err := core.Solve(idx, prob, core.Phase1Options{Order: core.OrderSequential})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Groups, want) {
				t.Fatalf("%s %v: blocked diverged\ngot:  %v\nwant: %v", tc.metric.Name(), prob.Cut, res.Groups, want)
			}
		}
	}
}

// TestBlockedLargeEquality is the broad-surface check: a few thousand
// records, parallel solve, pivot guard — must still be bit-for-bit.
func TestBlockedLargeEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus")
	}
	keys := clusteredKeys(rand.New(rand.NewSource(42)), 3000)
	prob := core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3}
	res := checkEquivalent(t, keys, prob, numStrategy(), Options{Parallel: 4}, "n=3000")
	if res.Blocks < 2 {
		t.Fatalf("expected a genuinely sharded solve, got %d blocks", res.Blocks)
	}
	if res.MaxBlock >= len(keys)/2 {
		t.Fatalf("largest block holds %d of %d records; sharding degenerated", res.MaxBlock, len(keys))
	}
}

// FuzzBlockedEquivalence mirrors FuzzIncrementalEquivalence: generated
// corpora, generated cut, both guard modes, always compared bit-for-bit
// against the monolithic solve.
func FuzzBlockedEquivalence(f *testing.F) {
	f.Add([]byte{10, 11, 10, 200, 201, 90}, uint8(3), false)
	f.Add([]byte{1, 1, 1, 1}, uint8(0), true)
	f.Add([]byte{0, 255, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(5), false)
	f.Fuzz(func(t *testing.T, data []byte, k uint8, minimal bool) {
		if len(data) == 0 || len(data) > 48 {
			t.Skip()
		}
		keys := make([]string, len(data))
		for i, b := range data {
			// Spread bytes across the key space but keep collisions and
			// near-misses likely (clusters around multiples of 1511).
			keys[i] = numKey(int(b)*1511 + i%3)
		}
		prob := core.Problem{C: 3, MinimalCompact: minimal}
		if k == 0 {
			prob.Cut = core.Cut{Diameter: 2000.0 / numScale}
		} else {
			prob.Cut = core.Cut{MaxSize: 2 + int(k%5)}
		}
		want := referenceGroups(t, keys, prob)
		for _, exhaustive := range []bool{false, true} {
			res, err := Solve(keys, numMetric, prob, numStrategy(), Options{Exhaustive: exhaustive, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(res.Groups, want) {
				t.Fatalf("exhaustive=%v: blocked diverged\nkeys: %v\ngot:  %v\nwant: %v",
					exhaustive, keys, res.Groups, want)
			}
		}
	})
}
