package nnindex

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fuzzydup/internal/distance"
)

func newPruned(t testing.TB, keys []string, metric distance.Metric) *Pruned {
	t.Helper()
	p, err := NewPruned(keys, metric, PrunedConfig{})
	if err != nil {
		t.Fatalf("NewPruned: %v", err)
	}
	return p
}

// typoCorpus builds duplicate clusters of randKey strings with small
// edits, the regime the prefilter is built for.
func typoCorpus(r *rand.Rand, n int) []string {
	keys := make([]string, 0, n)
	for len(keys) < n {
		base := randKey(r)
		keys = append(keys, base)
		for c := r.Intn(3); c > 0 && len(keys) < n; c-- {
			keys = append(keys, mutate(r, base))
		}
	}
	return keys
}

// checkSameAnswers compares every query of both indexes over all three
// Index methods.
func checkSameAnswers(t *testing.T, p *Pruned, e *Exact, thetas []float64, context string) {
	t.Helper()
	n := e.Len()
	for id := 0; id < n; id++ {
		for _, k := range []int{1, 2, 3, 5, n - 1, n + 3} {
			got, want := p.TopK(id, k), e.TopK(id, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: TopK(%d, %d)\ngot:  %v\nwant: %v", context, id, k, got, want)
			}
		}
		for _, theta := range thetas {
			got, want := p.Range(id, theta), e.Range(id, theta)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Range(%d, %g)\ngot:  %v\nwant: %v", context, id, theta, got, want)
			}
			if got, want := p.GrowthCount(id, theta), e.GrowthCount(id, theta); got != want {
				t.Fatalf("%s: GrowthCount(%d, %g) = %d, want %d", context, id, theta, got, want)
			}
		}
	}
}

var prunedThetas = []float64{1e-12, 0.05, 0.15, 0.3, 0.6, 1.0, 1.5}

// TestPrunedZeroSignatureRegression is the degenerate-signature
// regression test: records whose normalized form is empty (empty
// strings, punctuation-only, a lone apostrophe) carry all-zero
// signatures. Queries from them run the certified scan like any other
// (no fallback), and queries from every record must stay bit-identical
// to the exact scan's.
func TestPrunedZeroSignatureRegression(t *testing.T) {
	keys := []string{
		"", "...", "'", "  ", "?!",
		"a", "b", "janet smith", "janet smyth", "janet smith",
	}
	for _, metric := range []distance.Metric{distance.Edit{}, distance.Damerau{}} {
		p := newPruned(t, keys, metric)
		e := NewExact(keys, metric)
		checkSameAnswers(t, p, e, prunedThetas, "metric "+metric.Name())

		_, _, f0 := p.PrunedCounters()
		p.TopK(0, 3) // "" has a zero signature
		p.Range(2, 0.5)
		p.GrowthCount(3, 0.1)
		_, _, f1 := p.PrunedCounters()
		if f1-f0 != 0 {
			t.Fatalf("zero-signature queries must run the certified scan: got %d fallbacks, want 0", f1-f0)
		}
	}
}

// TestPrunedNonEditMetricDelegates: metrics without a certified bound
// must answer through the exact index, query for query.
func TestPrunedNonEditMetricDelegates(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	keys := typoCorpus(r, 30)
	p := newPruned(t, keys, distance.Jaccard{})
	if p.Prefiltered() {
		t.Fatal("jaccard must not report a certified prefilter")
	}
	e := NewExact(keys, distance.Jaccard{})
	checkSameAnswers(t, p, e, []float64{0.1, 0.5}, "jaccard")
	_, _, f := p.PrunedCounters()
	if f == 0 {
		t.Fatal("non-edit metric queries must be counted as fallbacks")
	}
}

// TestPrunedThroughCountingWrapper: the facade wraps metrics in
// distance.Counting; Name() passes through, so the prefilter must still
// engage.
func TestPrunedThroughCountingWrapper(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	keys := typoCorpus(r, 40)
	counter := distance.NewCounting(distance.Edit{})
	p := newPruned(t, keys, counter)
	if !p.Prefiltered() {
		t.Fatal("prefilter must engage through a counting wrapper")
	}
	e := NewExact(keys, distance.Edit{})
	checkSameAnswers(t, p, e, prunedThetas, "counting(ed)")
	pruned, candidates, _ := p.PrunedCounters()
	if pruned == 0 || candidates == 0 {
		t.Fatalf("expected both pruned and verified work, got pruned=%d candidates=%d", pruned, candidates)
	}
}

// TestPrunedOutputConventions: the edge-case surface must match Exact
// exactly — nil for k <= 0, non-nil empty Range, whole-relation TopK.
func TestPrunedOutputConventions(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma"}
	p := newPruned(t, keys, distance.Edit{})
	if got := p.TopK(0, 0); got != nil {
		t.Fatalf("TopK(k=0) = %v, want nil", got)
	}
	if got := p.TopK(0, -2); got != nil {
		t.Fatalf("TopK(k<0) = %v, want nil", got)
	}
	if got := p.Range(0, 1e-13); got == nil || len(got) != 0 {
		t.Fatalf("empty Range must be a non-nil empty slice, got %#v", got)
	}
	if got, want := p.TopK(1, 10), NewExact(keys, distance.Edit{}).TopK(1, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(k >= n-1) = %v, want %v", got, want)
	}
}

// TestPrunedConcurrentQueries hammers one index from many goroutines —
// the scan's scratch pool and atomic counters are its only mutable state,
// and by-value Nearest calls share that pool — and checks every answer
// against a serial exact run. Run under -race in CI.
func TestPrunedConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	keys := append(typoCorpus(r, 80), "", "x")
	p := newPruned(t, keys, distance.Edit{})
	e := NewExact(keys, distance.Edit{})
	var _ interface{ ConcurrentQueries() } = p

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < len(keys); id += 8 {
				if got, want := p.TopK(id, 3), e.TopK(id, 3); !reflect.DeepEqual(got, want) {
					errs <- "TopK diverged under concurrency"
					return
				}
				if got, want := p.Range(id, 0.25), e.Range(id, 0.25); !reflect.DeepEqual(got, want) {
					errs <- "Range diverged under concurrency"
					return
				}
				q := keys[id] + "z"
				if got, _ := p.scan.Nearest(q, 3); !reflect.DeepEqual(got, e.nearest(q, -1, 3)) {
					errs <- "Nearest diverged under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
