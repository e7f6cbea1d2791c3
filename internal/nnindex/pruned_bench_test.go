package nnindex

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"fuzzydup/internal/distance"
)

// Phase-1 prefilter benchmark: per-query throughput of the pruned index
// against the exact scan on identical corpora, so the speedup is a
// direct ratio of the paired ns/op series. One op is one phase-1 lookup
// for one record — both families phase 1 issues are measured:
//
//   - topk: TopK(id, 3), the size-cut (DE_S) lookup, answered by the
//     bound-ordered counting-sort scan; the win is the pruned fraction
//     of exact-metric calls.
//   - range: Range(id, 0.15), the diameter-cut (DE_D) lookup. One
//     popcount pass bounds every record, and at 0.15 the bound reaches
//     the threshold for nearly all of them: on these corpora fewer
//     than one record per query reaches the kernel, so the leg times
//     the popcount pass — the headline >10x case.
//
// The default corpora stay small (2k) so generic -bench=. sweeps are
// cheap; PHASE1_BENCH=1 adds the 10k corpora (the dedicated CI step sets
// it) and PHASE1_BENCH_FULL=1 adds the 100k case recorded in
// bench_phase1.json. The exact legs cost O(n) metric calls per query,
// which is why each op is one query rather than a full n-query phase 1.

// benchPrunedClustered builds a corpus of tight typo clusters amid
// random noise: the regime the prefilter targets, where almost every
// pair is far and only the cluster-mates survive the bound.
func benchPrunedClustered(r *rand.Rand, n int) []string {
	keys := make([]string, 0, n)
	for len(keys) < n {
		if r.Intn(3) == 0 {
			base := randKey(r)
			size := 2 + r.Intn(3)
			keys = append(keys, base)
			for s := 1; s < size && len(keys) < n; s++ {
				keys = append(keys, mutate(r, base))
			}
		} else {
			keys = append(keys, randKey(r))
		}
	}
	return keys
}

// benchPrunedUniform is pure noise — no planted clusters, so every
// neighbor is distant and the bound carries the whole prune.
func benchPrunedUniform(r *rand.Rand, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = randKey(r)
	}
	return keys
}

// benchPrunedSizes gates corpus sizes on the environment, keeping the
// ungated -bench=. sweep fast.
func benchPrunedSizes() []int {
	if os.Getenv("PHASE1_BENCH_FULL") != "" {
		return []int{10000, 100000}
	}
	if os.Getenv("PHASE1_BENCH") != "" {
		return []int{10000}
	}
	return []int{2000}
}

func BenchmarkPhase1Pruned(b *testing.B) {
	const (
		k     = 3
		theta = 0.15
	)
	metric := distance.Edit{}
	for _, n := range benchPrunedSizes() {
		for _, shape := range []struct {
			name string
			gen  func(*rand.Rand, int) []string
		}{
			{"clustered", benchPrunedClustered},
			{"uniform", benchPrunedUniform},
		} {
			keys := shape.gen(rand.New(rand.NewSource(1)), n)
			queries := make([]int, 256)
			qr := rand.New(rand.NewSource(2))
			for i := range queries {
				queries[i] = qr.Intn(n)
			}

			exact := NewExact(keys, metric)
			pruned, err := NewPruned(keys, metric, PrunedConfig{})
			if err != nil {
				b.Fatal(err)
			}
			legs := []struct {
				name     string
				op       func(q int)
				counters bool
			}{
				{"exact/topk", func(q int) { exact.TopK(q, k) }, false},
				{"pruned/topk", func(q int) { pruned.TopK(q, k) }, true},
				{"exact/range", func(q int) { exact.Range(q, theta) }, false},
				{"pruned/range", func(q int) { pruned.Range(q, theta) }, true},
			}
			for _, leg := range legs {
				b.Run(fmt.Sprintf("%s/%s/n=%d", leg.name, shape.name, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						leg.op(queries[i%len(queries)])
					}
					b.StopTimer()
					if pr, cand, _ := pruned.PrunedCounters(); leg.counters && pr+cand > 0 {
						b.ReportMetric(float64(pr)/float64(pr+cand)*100, "%pruned")
					}
				})
			}
		}
	}
}
