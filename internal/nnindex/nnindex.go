// Package nnindex provides the nearest-neighbor index substrate of the
// paper's phase 1: given a relation and a distance function, answer
// "K nearest neighbors of tuple v", "all neighbors of v within θ", and
// "how many tuples lie within radius r of v" (the neighborhood-growth
// count).
//
// Two implementations are provided. Exact scans the whole relation per
// query and is the ground truth. QGram is the stand-in for the
// probabilistic disk-based indexes the paper cites ([24, 23, 9]): an
// inverted index from q-grams to posting lists, stored page-wise behind a
// buffer pool, with candidate generation followed by metric verification.
// The paper treats such indexes as exact; our tests quantify how close
// that is.
package nnindex

import (
	"sort"

	"fuzzydup/internal/distance"
)

// Neighbor is one entry of a nearest-neighbor answer: the neighbor's tuple
// ID and its distance from the query tuple.
type Neighbor struct {
	ID   int
	Dist float64
}

// Index answers nearest-neighbor queries over a fixed relation whose
// tuples are identified by dense integer IDs 0..N-1.
type Index interface {
	// Len returns the number of tuples indexed.
	Len() int
	// TopK returns up to k nearest neighbors of tuple id (excluding id
	// itself), ordered by ascending (distance, ID).
	TopK(id, k int) []Neighbor
	// Range returns all neighbors u of tuple id with d(u, id) < theta
	// (excluding id itself), ordered by ascending (distance, ID).
	Range(id int, theta float64) []Neighbor
	// GrowthCount returns |{u != id : d(u, id) < r}|, the neighborhood
	// growth numerator of the SN criterion.
	GrowthCount(id int, r float64) int
}

// sortNeighbors orders by (distance, ID), the deterministic tie-break the
// whole system relies on (see DESIGN.md "Nearest-neighbor ties").
func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].ID < ns[j].ID
	})
}

// Exact is the reference index: every query scans the full relation. It is
// O(n) per query but exact for any metric, and is what small-relation runs
// and the accuracy experiments use.
type Exact struct {
	keys   []string
	metric distance.Metric
}

// NewExact builds an exact index over keys (the string representation of
// each tuple; tuple i has ID i) under the given metric.
func NewExact(keys []string, metric distance.Metric) *Exact {
	return &Exact{keys: keys, metric: metric}
}

// Len implements Index.
func (e *Exact) Len() int { return len(e.keys) }

// ConcurrentQueries marks the index safe for concurrent queries: it holds
// no mutable state.
func (e *Exact) ConcurrentQueries() {}

// Distance exposes the underlying metric between two indexed tuples; used
// by diagnostics and tests.
func (e *Exact) Distance(a, b int) float64 {
	return e.metric.Distance(e.keys[a], e.keys[b])
}

// TopK implements Index.
func (e *Exact) TopK(id, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	return e.nearest(e.keys[id], id, k)
}

// nearest is the exact top-k selection: the k nearest keys to q,
// skipping ID skip (-1 for none), ascending by (distance, ID).
func (e *Exact) nearest(q string, skip, k int) []Neighbor {
	sel := NewSelection(k)
	for u, key := range e.keys {
		if u != skip {
			sel.Offer(Neighbor{ID: u, Dist: e.metric.Distance(q, key)})
		}
	}
	return sel.Sorted()
}

// Selection keeps the k nearest of the neighbors offered to it, under
// the (distance, ID) order every index answers in. It holds them in a
// bounded max-heap — O(n log k) over n offers instead of sorting all n —
// which is what makes the exact index usable as the per-block engine of
// the sharded solve and as the full-solve reference at 50k records, and
// what the incremental engine's relookups select with. The result is
// bit-identical to sorting every offered neighbor and truncating:
// (distance, ID) is a total order, so the k smallest are unique. The
// heap grows with the offers, so a k beyond the candidates sizes
// nothing.
type Selection struct {
	k int
	h []Neighbor // max-heap on (Dist, ID): h[0] is the worst of the k best
}

// NewSelection starts a selection of at most k neighbors (none when
// k <= 0). An empty selection sorts to a non-nil empty list, like Range.
func NewSelection(k int) Selection { return Selection{k: k, h: []Neighbor{}} }

// Offer considers one candidate neighbor.
func (s *Selection) Offer(nb Neighbor) {
	switch {
	case len(s.h) < s.k:
		s.h = append(s.h, nb)
		siftUp(s.h, len(s.h)-1)
	case s.k > 0 && neighborLess(nb, s.h[0]):
		s.h[0] = nb
		siftDown(s.h, 0)
	}
}

// Sorted returns the selected neighbors ascending by (distance, ID). The
// selection must not be offered more neighbors afterwards.
func (s *Selection) Sorted() []Neighbor {
	sortNeighbors(s.h)
	return s.h
}

// neighborLess is the (distance, ID) total order shared by the heap and
// sortNeighbors.
func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

func siftUp(h []Neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !neighborLess(h[p], h[i]) { // parent already the worse one
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []Neighbor, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && neighborLess(h[worst], h[l]) {
			worst = l
		}
		if r < len(h) && neighborLess(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Range implements Index. Only the neighbors inside the radius are
// collected and sorted — the θ-ball is typically a small fraction of the
// relation, so this avoids the full n log n sort per query.
func (e *Exact) Range(id int, theta float64) []Neighbor {
	q := e.keys[id]
	ns := []Neighbor{} // non-nil even when empty, like the full-sort path
	for u, key := range e.keys {
		if u == id {
			continue
		}
		if d := e.metric.Distance(q, key); d < theta {
			ns = append(ns, Neighbor{ID: u, Dist: d})
		}
	}
	sortNeighbors(ns)
	return ns
}

// GrowthCount implements Index.
func (e *Exact) GrowthCount(id int, r float64) int {
	n := 0
	q := e.keys[id]
	for u, key := range e.keys {
		if u == id {
			continue
		}
		if e.metric.Distance(q, key) < r {
			n++
		}
	}
	return n
}
