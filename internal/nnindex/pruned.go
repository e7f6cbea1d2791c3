package nnindex

import (
	"sync/atomic"

	"fuzzydup/internal/distance"
)

// Pruned is a drop-in replacement for Exact that answers every query
// bit-for-bit identically while skipping most exact-metric evaluations.
// It is the Index adapter over the certified linear scan (Scan, scan.go):
// TopK runs the scan's bound-ordered top-k, and Range/GrowthCount bound
// every record with the scan's per-pair bound and verify only those the
// bound cannot place at or beyond the threshold.
//
// The filter is provably lossless (see Scan for the per-pair argument):
// a record is skipped only when a sound lower bound proves its true
// distance cannot change the answer, strict comparisons leave all
// (distance, ID) ties to exact verification, and verified distances are
// byte-identical to Exact's. A query whose normalized form is empty (it
// has no q-grams, so its signature is all-zero) runs the same scan: the
// bound holds for it as for any other key.
//
// Fallback rules (each query delegates wholesale to Exact, counted in
// PrunedCounters' fallbacks):
//
//   - the metric is not edit-family ("ed"/"damerau" by Name(), looked up
//     through counting wrappers): no certified bound exists;
//   - TopK with k >= n-1: the answer is the whole relation anyway.
//
// Pruned holds no mutable per-query state outside the scan's sync.Pool
// and atomic counters, so it is safe for unlimited concurrent queries.
type Pruned struct {
	scan *Scan

	pruned     atomic.Int64
	candidates atomic.Int64
	fallbacks  atomic.Int64
}

// PrunedConfig has no settings: the scan needs none. It stays so that
// existing NewPruned calls keep compiling.
type PrunedConfig struct{}

// NewPruned builds the exact index over keys under the given metric:
// the scan's O(n) signature hashing and normalization for the certified
// metrics, a pure delegate to Exact for the others. The error is always
// nil.
func NewPruned(keys []string, metric distance.Metric, _ PrunedConfig) (*Pruned, error) {
	return &Pruned{scan: NewScan(keys, metric)}, nil
}

// Len implements Index.
func (p *Pruned) Len() int { return p.scan.Len() }

// ConcurrentQueries marks the index safe for concurrent queries: the
// tables are immutable, scratch is pooled, counters are atomic.
func (p *Pruned) ConcurrentQueries() {}

// Prefiltered reports whether the metric admits the certified signature
// bound; when false every query delegates to the exact scan.
func (p *Pruned) Prefiltered() bool { return p.scan.Prefiltered() }

// PrunedCounters returns the cumulative prefilter counters: records
// excluded by a certified bound without exact verification, records
// exactly verified (candidates), and whole queries that fell back to the
// embedded Exact index. Monotone and safe to read while queries run;
// callers difference snapshots to attribute work to one run.
func (p *Pruned) PrunedCounters() (pruned, candidates, fallbacks int64) {
	return p.pruned.Load(), p.candidates.Load(), p.fallbacks.Load()
}

// TopK implements Index, bit-for-bit identical to Exact.TopK.
func (p *Pruned) TopK(id, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	s := p.scan
	n := s.Len()
	if !s.Prefiltered() || k >= n-1 {
		p.fallbacks.Add(1)
		return s.exact.TopK(id, k)
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	ns, verified := s.topK(s.sigOf(id), s.nrunes[id], id, k, sc)
	p.pruned.Add(int64(n - 1 - verified))
	p.candidates.Add(int64(verified))
	return ns
}

// Range implements Index, bit-for-bit identical to Exact.Range.
func (p *Pruned) Range(id int, theta float64) []Neighbor {
	if !p.scan.Prefiltered() {
		p.fallbacks.Add(1)
		return p.scan.exact.Range(id, theta)
	}
	ns := []Neighbor{} // non-nil even when empty, like Exact
	p.forWithin(id, theta, func(u int, d float64) {
		ns = append(ns, Neighbor{ID: u, Dist: d})
	})
	sortNeighbors(ns)
	return ns
}

// GrowthCount implements Index, bit-for-bit identical to
// Exact.GrowthCount.
func (p *Pruned) GrowthCount(id int, r float64) int {
	if !p.scan.Prefiltered() {
		p.fallbacks.Add(1)
		return p.scan.exact.GrowthCount(id, r)
	}
	if r > 1 {
		// Normalized edit distances never exceed 1 (edit count <= longer
		// length): the sphere holds the whole relation.
		return p.Len() - 1
	}
	count := 0
	p.forWithin(id, r, func(int, float64) { count++ })
	return count
}

// forWithin invokes yield(u, d) for every record u != id with exact
// distance d < theta. Every record is bounded with the scan's per-pair
// bound; one whose bound reaches theta is skipped on that certified
// proof that d >= theta, and the rest are verified with a kernel capped
// just above theta.
func (p *Pruned) forWithin(id int, theta float64, yield func(u int, d float64)) {
	s := p.scan
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	n := s.Len()
	qsig := s.sigOf(id)
	qr := s.nrunes[id]
	qlen := len(qr)
	verified := 0
	for u := 0; u < n; u++ {
		if u == id || s.lowerBound(qsig, qlen, u) >= theta {
			continue
		}
		denom := s.denom(qlen, u)
		verified++
		if d, ok := s.verifyDist(qr, u, denom, capEdits(denom, theta), sc); ok && d < theta {
			yield(u, d)
		}
	}
	p.pruned.Add(int64(n - 1 - verified))
	p.candidates.Add(int64(verified))
}
