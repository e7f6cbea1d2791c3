// Randomized equivalence harness for the prefiltered phase 1: whatever
// the corpus, cut, or metric, core.ComputeNN over nnindex.Pruned must
// produce the same NN relation as over nnindex.Exact — identical rows
// (neighbor lists with distances, growth counts), not merely identical
// groups. This is the external-package half of the pruned test suite; it
// drives the indexes through the real phase-1 machinery. Its by-value
// leg holds nnindex.Scan, the online path's miss scan, to the same
// standard for keys outside the corpus.
package nnindex_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// equivAlphabet mixes ASCII letters with multi-byte runes (accented
// latin, CJK) so rune/byte confusion anywhere in the scan would surface.
var equivAlphabet = []rune("abcdefgh éü間水'")

func equivKey(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(equivAlphabet[r.Intn(len(equivAlphabet))])
	}
	return b.String()
}

// equivMutate applies 1..3 rune-level edits: substitution, insertion,
// deletion, adjacent transposition.
func equivMutate(r *rand.Rand, s string) string {
	rs := []rune(s)
	for e := 1 + r.Intn(3); e > 0; e-- {
		switch i := r.Intn(len(rs) + 1); r.Intn(4) {
		case 0:
			if i < len(rs) {
				rs[i] = equivAlphabet[r.Intn(len(equivAlphabet))]
			}
		case 1:
			rs = append(rs[:i], append([]rune{equivAlphabet[r.Intn(len(equivAlphabet))]}, rs[i:]...)...)
		case 2:
			if i < len(rs) {
				rs = append(rs[:i], rs[i+1:]...)
			}
		case 3:
			if i+1 < len(rs) {
				rs[i], rs[i+1] = rs[i+1], rs[i]
			}
		}
	}
	return string(rs)
}

// equivCorpus draws a corpus in the dedup regime: clusters of mutated
// duplicates, exact (verbatim) duplicates, degenerate empty /
// punctuation-only strings, and uniform noise.
func equivCorpus(r *rand.Rand, n int) []string {
	keys := make([]string, 0, n)
	for len(keys) < n {
		switch r.Intn(10) {
		case 0:
			keys = append(keys, [...]string{"", "...", "'", "  "}[r.Intn(4)])
		case 1, 2:
			base := equivKey(r, 18)
			for c := 1 + r.Intn(3); c > 0 && len(keys) < n; c-- {
				keys = append(keys, base) // exact duplicates
			}
		case 3, 4, 5, 6:
			base := equivKey(r, 18)
			keys = append(keys, base)
			for c := 1 + r.Intn(4); c > 0 && len(keys) < n; c-- {
				keys = append(keys, equivMutate(r, base))
			}
		default:
			keys = append(keys, equivKey(r, 24))
		}
	}
	return keys
}

func equivMetric(name string) distance.Metric {
	if name == "damerau" {
		return distance.Damerau{}
	}
	return distance.Edit{}
}

// checkPhase1Equivalent runs phase 1 over both indexes and requires
// identical relations.
func checkPhase1Equivalent(t *testing.T, keys []string, metric distance.Metric, cut core.Cut, parallel int, context string) {
	t.Helper()
	exact := nnindex.NewExact(keys, metric)
	pruned, err := nnindex.NewPruned(keys, metric, nnindex.PrunedConfig{})
	if err != nil {
		t.Fatalf("%s: NewPruned: %v", context, err)
	}
	opts := core.Phase1Options{Order: core.OrderSequential, Parallel: parallel}
	want, err := core.ComputeNN(exact, cut, 0, opts)
	if err != nil {
		t.Fatalf("%s: exact phase 1: %v", context, err)
	}
	got, err := core.ComputeNN(pruned, cut, 0, opts)
	if err != nil {
		t.Fatalf("%s: pruned phase 1: %v", context, err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want.Rows {
			if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
				t.Fatalf("%s: NN row %d (key %q) diverged\ngot:  %+v\nwant: %+v",
					context, i, keys[i], got.Rows[i], want.Rows[i])
			}
		}
		t.Fatalf("%s: NN relations diverged outside the rows", context)
	}
}

// byValueMetrics are the metrics of the by-value leg: both certified
// metrics, and jaccard, for which Scan has no bound and verifies every
// record.
var byValueMetrics = []distance.Metric{distance.Edit{}, distance.Damerau{}, distance.Jaccard{}}

// checkNearestByValue runs keys that need not be corpus records through
// Scan.Nearest — mutations of corpus keys, zero-signature keys, and a key
// longer than any record — and requires the (ID, distance) lists of a
// brute-force exact scan, bit for bit, for k from 1 to beyond n.
func checkNearestByValue(t *testing.T, keys []string, r *rand.Rand, context string) {
	t.Helper()
	n := len(keys)
	longest := ""
	for _, k := range keys {
		if utf8.RuneCountInString(k) > utf8.RuneCountInString(longest) {
			longest = k
		}
	}
	queries := []string{"", "...", "'", longest + "間" + longest}
	for i := 0; i < 10; i++ {
		queries = append(queries, equivMutate(r, keys[r.Intn(n)]))
	}
	for _, metric := range byValueMetrics {
		scan := nnindex.NewScan(keys, metric)
		for _, q := range queries {
			all := make([]nnindex.Neighbor, n)
			for i, key := range keys {
				all[i] = nnindex.Neighbor{ID: i, Dist: metric.Distance(q, key)}
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].Dist != all[b].Dist {
					return all[a].Dist < all[b].Dist
				}
				return all[a].ID < all[b].ID
			})
			for _, k := range []int{1, 3, 5, n, n + 3} {
				got, verified := scan.Nearest(q, k)
				if want := all[:min(k, n)]; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s metric=%s: Nearest(%q, %d)\ngot:  %v\nwant: %v",
						context, metric.Name(), q, k, got, want)
				}
				if verified > n || (!scan.Prefiltered() && verified != n) {
					t.Fatalf("%s metric=%s: Nearest(%q, %d) verified %d of %d records (prefiltered=%v)",
						context, metric.Name(), q, k, verified, n, scan.Prefiltered())
				}
			}
		}
	}
}

// TestPrunedPhase1Equivalence is the harness's main sweep: size cuts
// K ∈ {1..5} (K=1 via TopK probes below the cut minimum is exercised by
// TestPrunedTopKBelowCutMinimum; cuts validate K >= 2), diameter cuts
// across a θ sweep, and combined cuts, over both certified metrics,
// serial and parallel, on corpora mixing unicode, empty strings, and
// duplicates. Each corpus also runs the by-value leg.
func TestPrunedPhase1Equivalence(t *testing.T) {
	cuts := []core.Cut{
		{MaxSize: 2}, {MaxSize: 3}, {MaxSize: 4}, {MaxSize: 5},
		{Diameter: 0.02}, {Diameter: 0.08}, {Diameter: 0.2}, {Diameter: 0.45}, {Diameter: 0.9},
		{MaxSize: 3, Diameter: 0.2}, {MaxSize: 5, Diameter: 0.6},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{12, 50, 140} {
			keys := equivCorpus(rand.New(rand.NewSource(seed)), n)
			for _, metricName := range []string{"ed", "damerau"} {
				metric := equivMetric(metricName)
				for ci, cut := range cuts {
					for _, par := range []int{1, 4} {
						ctx := fmt.Sprintf("metric=%s seed=%d n=%d cut=%d par=%d", metricName, seed, n, ci, par)
						checkPhase1Equivalent(t, keys, metric, cut, par, ctx)
					}
				}
			}
			checkNearestByValue(t, keys, rand.New(rand.NewSource(seed)), fmt.Sprintf("seed=%d n=%d", seed, n))
		}
	}
}

// TestPrunedTopKBelowCutMinimum covers K=1 of the required K ∈ {1..5}
// sweep: the cut validator requires K >= 2, so K=1 is probed at the
// index surface, where phase 1's nearest-neighbor fallback issues it.
func TestPrunedTopKBelowCutMinimum(t *testing.T) {
	for _, metricName := range []string{"ed", "damerau"} {
		metric := equivMetric(metricName)
		keys := equivCorpus(rand.New(rand.NewSource(9)), 70)
		exact := nnindex.NewExact(keys, metric)
		pruned, err := nnindex.NewPruned(keys, metric, nnindex.PrunedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for id := range keys {
			if got, want := pruned.TopK(id, 1), exact.TopK(id, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("metric=%s TopK(%d, 1)\ngot:  %v\nwant: %v", metricName, id, got, want)
			}
		}
	}
}

// TestPrunedPhase1EngagesPrefilter guards against the prefilter silently
// degenerating into a pure fallback: on a clustered corpus with a size
// cut, the scan's per-pair bound must prune real work.
func TestPrunedPhase1EngagesPrefilter(t *testing.T) {
	keys := equivCorpus(rand.New(rand.NewSource(21)), 200)
	pruned, err := nnindex.NewPruned(keys, distance.Edit{}, nnindex.PrunedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ComputeNN(pruned, core.Cut{MaxSize: 3}, 0, core.Phase1Options{Order: core.OrderSequential}); err != nil {
		t.Fatal(err)
	}
	prunedN, candidates, fallbacks := pruned.PrunedCounters()
	if prunedN == 0 {
		t.Fatalf("no records were pruned (candidates=%d fallbacks=%d)", candidates, fallbacks)
	}
	if fallbacks >= int64(len(keys)) {
		t.Fatalf("prefilter fell back on every query (%d fallbacks)", fallbacks)
	}
}

// FuzzPrunedPhase1Equivalence fuzzes the harness: generated corpora
// (bytes mapped onto a small mixed-width alphabet, 0xFF as the record
// separator), a generated cut, both certified metrics, always compared
// row-for-row against the exact index, plus the by-value leg.
func FuzzPrunedPhase1Equivalence(f *testing.F) {
	f.Add([]byte("janet\xffjanet smith\xffjan te\xff\xffabc"), uint8(3), false)
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3}, uint8(0), true)
	f.Add([]byte("aaaa\xffaaab\xffaabb\xffbbbb"), uint8(7), false)
	fuzzAlphabet := []rune("abc é'間")
	f.Fuzz(func(t *testing.T, data []byte, cutSel uint8, damerau bool) {
		if len(data) == 0 || len(data) > 96 {
			t.Skip()
		}
		var keys []string
		var b strings.Builder
		for _, by := range data {
			if by == 0xFF {
				keys = append(keys, b.String())
				b.Reset()
				continue
			}
			b.WriteRune(fuzzAlphabet[int(by)%len(fuzzAlphabet)])
		}
		keys = append(keys, b.String())
		if len(keys) < 2 {
			t.Skip()
		}
		var cut core.Cut
		switch cutSel % 3 {
		case 0:
			cut = core.Cut{Diameter: float64(1+cutSel/3) / 100}
		case 1:
			cut = core.Cut{MaxSize: 2 + int(cutSel/3)%4}
		default:
			cut = core.Cut{MaxSize: 2 + int(cutSel/3)%4, Diameter: float64(1+cutSel/5) / 80}
		}
		metricName := "ed"
		if damerau {
			metricName = "damerau"
		}
		ctx := fmt.Sprintf("metric=%s cut=%+v", metricName, cut)
		checkPhase1Equivalent(t, keys, equivMetric(metricName), cut, 1, ctx)
		checkNearestByValue(t, keys, rand.New(rand.NewSource(int64(cutSel))), "fuzz")
	})
}
