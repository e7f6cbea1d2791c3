package nnindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"fuzzydup/internal/distance"
)

// table1Keys is the motivating example of the paper's Table 1.
var table1Keys = []string{
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

// numericKeys builds a relation of integers with the absolute-difference
// metric, handy for precise geometric assertions.
func numericMetric() distance.Metric {
	return distance.Func{MetricName: "absdiff", F: func(a, b string) float64 {
		x, _ := strconv.ParseFloat(a, 64)
		y, _ := strconv.ParseFloat(b, 64)
		d := x - y
		if d < 0 {
			d = -d
		}
		return d / 1000 // keep within [0,1] for values < 1000 apart
	}}
}

func numericKeys(vals ...int) []string {
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = strconv.Itoa(v)
	}
	return keys
}

func TestExactTopK(t *testing.T) {
	// Values: 1, 2, 4, 20, 22, 30, 32 (the Section 3 example).
	keys := numericKeys(1, 2, 4, 20, 22, 30, 32)
	idx := NewExact(keys, numericMetric())
	if idx.Len() != 7 {
		t.Fatalf("Len = %d", idx.Len())
	}
	ns := idx.TopK(0, 2) // neighbors of value 1: 2 (d=1), 4 (d=3)
	if len(ns) != 2 || ns[0].ID != 1 || ns[1].ID != 2 {
		t.Errorf("TopK(0,2) = %+v", ns)
	}
	// k larger than relation: returns n-1 neighbors.
	ns = idx.TopK(0, 100)
	if len(ns) != 6 {
		t.Errorf("TopK(0,100) len = %d", len(ns))
	}
	if idx.TopK(0, 0) != nil {
		t.Error("TopK with k=0 should be nil")
	}
	// Self is never included.
	for _, n := range ns {
		if n.ID == 0 {
			t.Error("self in neighbor list")
		}
	}
}

func TestExactRange(t *testing.T) {
	keys := numericKeys(1, 2, 4, 20, 22, 30, 32)
	idx := NewExact(keys, numericMetric())
	// Range around 20 with theta = 0.003 (3 units): 22 only.
	ns := idx.Range(3, 0.003)
	if len(ns) != 1 || ns[0].ID != 4 {
		t.Errorf("Range = %+v", ns)
	}
	// theta excludes the boundary: d(20,22)=0.002 < 0.002 is false.
	ns = idx.Range(3, 0.002)
	if len(ns) != 0 {
		t.Errorf("boundary should be excluded: %+v", ns)
	}
}

func TestExactGrowthCount(t *testing.T) {
	keys := numericKeys(1, 2, 4, 20, 22, 30, 32)
	idx := NewExact(keys, numericMetric())
	// nn(1)=d(1,2)=0.001; growth radius 2*nn=0.002: {2} -> ng=1
	if got := idx.GrowthCount(0, 0.002); got != 1 {
		t.Errorf("GrowthCount(1) = %d", got)
	}
	// For value 2: nn=0.001 (to 1); radius 0.002 covers 1 (d .001) but not 4 (d .002, boundary)
	if got := idx.GrowthCount(1, 0.002); got != 1 {
		t.Errorf("GrowthCount(2) = %d", got)
	}
	// Radius big enough for everything.
	if got := idx.GrowthCount(0, 1.0); got != 6 {
		t.Errorf("GrowthCount full = %d", got)
	}
}

func TestExactDeterministicTieBreak(t *testing.T) {
	// Three equidistant points; ties must break by ID.
	keys := numericKeys(10, 20, 20, 20)
	idx := NewExact(keys, numericMetric())
	ns := idx.TopK(0, 3)
	want := []int{1, 2, 3}
	for i, n := range ns {
		if n.ID != want[i] {
			t.Errorf("tie-break order = %+v", ns)
			break
		}
	}
}

func TestExactTable1MutualNN(t *testing.T) {
	idx := NewExact(table1Keys, distance.Edit{})
	// Tuples 0 and 1 ("The Doors LA Woman" / "Doors LA Woman") must be
	// mutual nearest neighbors under edit distance.
	n0 := idx.TopK(0, 1)
	n1 := idx.TopK(1, 1)
	if len(n0) != 1 || n0[0].ID != 1 {
		t.Errorf("NN of tuple 0 = %+v, want tuple 1", n0)
	}
	if len(n1) != 1 || n1[0].ID != 0 {
		t.Errorf("NN of tuple 1 = %+v, want tuple 0", n1)
	}
	// The "Are You Ready" series (10-13) has dense neighborhoods: each has
	// at least 3 tuples within twice its NN distance.
	for id := 10; id <= 13; id++ {
		nn := idx.TopK(id, 1)[0].Dist
		if g := idx.GrowthCount(id, 2*nn); g < 3 {
			t.Errorf("tuple %d growth = %d, want >= 3 (dense series)", id, g)
		}
	}
}

func TestQGramMatchesExactOnTable1(t *testing.T) {
	metric := distance.Edit{}
	exact := NewExact(table1Keys, metric)
	qg, err := NewQGram(table1Keys, metric, QGramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if qg.Len() != len(table1Keys) {
		t.Fatalf("Len = %d", qg.Len())
	}
	// The probabilistic index is allowed to miss far neighbors (few shared
	// grams); what the DE algorithm needs is agreement on close ones. Keep
	// only neighbors below distance 0.5 from both answers and compare.
	near := func(ns []Neighbor) []Neighbor {
		var out []Neighbor
		for _, n := range ns {
			if n.Dist < 0.5 {
				out = append(out, n)
			}
		}
		return out
	}
	for id := range table1Keys {
		en := near(exact.TopK(id, 3))
		qn := near(qg.TopK(id, 3))
		if !reflect.DeepEqual(en, qn) {
			t.Errorf("tuple %d: exact %+v vs qgram %+v", id, en, qn)
		}
	}
}

func TestQGramRangeAndGrowth(t *testing.T) {
	metric := distance.Edit{}
	exact := NewExact(table1Keys, metric)
	qg, err := NewQGram(table1Keys, metric, QGramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for id := range table1Keys {
		er := exact.Range(id, 0.4)
		qr := qg.Range(id, 0.4)
		if !reflect.DeepEqual(er, qr) {
			t.Errorf("tuple %d range: exact %+v vs qgram %+v", id, er, qr)
		}
		nn := exact.TopK(id, 1)[0].Dist
		eg := exact.GrowthCount(id, 2*nn)
		qgc := qg.GrowthCount(id, 2*nn)
		if eg != qgc {
			t.Errorf("tuple %d growth: exact %d vs qgram %d", id, eg, qgc)
		}
	}
}

func TestQGramRecallOnSyntheticRelation(t *testing.T) {
	// A larger synthetic relation: random base strings plus noisy copies.
	rng := rand.New(rand.NewSource(11))
	letters := []rune("abcdefghijklmnopqrstuvwxyz")
	randWord := func(n int) string {
		w := make([]rune, n)
		for i := range w {
			w[i] = letters[rng.Intn(len(letters))]
		}
		return string(w)
	}
	var keys []string
	for i := 0; i < 150; i++ {
		base := randWord(6) + " " + randWord(8) + " " + randWord(5)
		keys = append(keys, base)
		// noisy copy: one substitution
		b := []rune(base)
		p := rng.Intn(len(b))
		b[p] = letters[rng.Intn(len(letters))]
		keys = append(keys, string(b))
	}
	metric := distance.Edit{}
	exact := NewExact(keys, metric)
	qg, err := NewQGram(keys, metric, QGramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for id := range keys {
		if exact.TopK(id, 1)[0].ID == qg.TopK(id, 1)[0].ID {
			agree++
		}
	}
	recall := float64(agree) / float64(len(keys))
	if recall < 0.98 {
		t.Errorf("qgram top-1 recall = %.3f, want >= 0.98", recall)
	}
}

func TestQGramBufferAccounting(t *testing.T) {
	qg, err := NewQGram(table1Keys, distance.Edit{}, QGramConfig{PoolFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	qg.Pool().ResetStats()
	qg.TopK(0, 3)
	hits, misses := qg.Pool().Stats()
	if hits+misses == 0 {
		t.Error("query did not touch the buffer pool")
	}
	// Growth immediately after TopK for the same tuple uses the memo: no
	// further pool traffic.
	h0, m0 := qg.Pool().Stats()
	qg.GrowthCount(0, 0.5)
	h1, m1 := qg.Pool().Stats()
	if h1 != h0 || m1 != m0 {
		t.Error("memoized growth lookup should not re-probe the pool")
	}
}

func TestQGramEmptyAndDegenerate(t *testing.T) {
	qg, err := NewQGram([]string{"", "x", "x"}, distance.Edit{}, QGramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The empty string has no grams, hence no candidates.
	if ns := qg.TopK(0, 2); len(ns) != 0 {
		t.Errorf("empty-string neighbors = %+v", ns)
	}
	// Identical strings find each other at distance 0.
	ns := qg.TopK(1, 1)
	if len(ns) != 1 || ns[0].ID != 2 || ns[0].Dist != 0 {
		t.Errorf("identical pair = %+v", ns)
	}
}

func TestQGramTopKZero(t *testing.T) {
	qg, err := NewQGram(table1Keys, distance.Edit{}, QGramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if qg.TopK(0, 0) != nil {
		t.Error("TopK k=0 should be nil")
	}
}

func TestQGramLargePostingSpansChunks(t *testing.T) {
	// 3000 identical-prefix keys force posting lists longer than one chunk
	// (1024 ids) for the shared grams; MaxDF must be raised so the shared
	// grams are actually used.
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = fmt.Sprintf("commonprefix%04d", i)
	}
	qg, err := NewQGram(keys, distance.Edit{}, QGramConfig{MaxDF: 4000, MaxCandidates: 4000})
	if err != nil {
		t.Fatal(err)
	}
	ns := qg.TopK(0, 2)
	if len(ns) != 2 {
		t.Fatalf("TopK = %+v", ns)
	}
	// Nearest should be 0001 / 1000 region: one char apart strings.
	if ns[0].Dist <= 0 {
		t.Errorf("unexpected zero distance: %+v", ns[0])
	}
}

func BenchmarkExactTopK(b *testing.B) {
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("tuple %d payload %d", i, i*i)
	}
	idx := NewExact(keys, distance.Edit{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopK(i%len(keys), 5)
	}
}

func BenchmarkQGramTopK(b *testing.B) {
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("tuple %d payload %d", i, i*i)
	}
	idx, err := NewQGram(keys, distance.Edit{}, QGramConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopK(i%len(keys), 5)
	}
}

// allNeighbors is the full-sort reference TopK and Range are pinned
// against: every neighbor of id, sorted by (distance, ID).
func (e *Exact) allNeighbors(id int) []Neighbor {
	q := e.keys[id]
	ns := make([]Neighbor, 0, len(e.keys)-1)
	for u, key := range e.keys {
		if u == id {
			continue
		}
		ns = append(ns, Neighbor{ID: u, Dist: e.metric.Distance(q, key)})
	}
	sortNeighbors(ns)
	return ns
}

// TestExactTopKMatchesFullSort pins the heap-selection TopK against the
// reference implementation (sort every neighbor, truncate) across corpus
// sizes, k values, and deliberate distance ties: the outputs must be
// bit-identical, because the whole system's determinism rests on the
// (distance, ID) order of these lists.
func TestExactTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		keys := make([]string, n)
		for i := range keys {
			// A small value range forces frequent exact ties.
			keys[i] = strconv.Itoa(rng.Intn(12))
		}
		e := NewExact(keys, numericMetric())
		for _, k := range []int{0, 1, 2, 3, n - 1, n, n + 5} {
			for id := 0; id < n; id++ {
				got := e.TopK(id, k)
				want := e.allNeighbors(id)
				if k <= 0 {
					want = nil
				} else if len(want) > k {
					want = want[:k]
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d n=%d k=%d id=%d: TopK %v != reference %v (keys %v)",
						trial, n, k, id, got, want, keys)
				}
			}
		}
	}
}

// TestExactRangeMatchesFullSort pins the filtered Range against the
// reference (sort all, cut at θ), including θ exactly on a distance value
// (strictly-less semantics) and θ beyond every distance.
func TestExactRangeMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(30)
		keys := make([]string, n)
		for i := range keys {
			keys[i] = strconv.Itoa(rng.Intn(10))
		}
		e := NewExact(keys, numericMetric())
		for _, theta := range []float64{0, 0.5, 1, 2, 3.5, 100} {
			for id := 0; id < n; id++ {
				got := e.Range(id, theta)
				all := e.allNeighbors(id)
				cut := len(all)
				for i, nb := range all {
					if nb.Dist >= theta {
						cut = i
						break
					}
				}
				want := all[:cut]
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d n=%d theta=%g id=%d: Range %v != reference %v (keys %v)",
						trial, n, theta, id, got, want, keys)
				}
			}
		}
	}
}
