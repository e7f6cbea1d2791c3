package nnindex

import (
	"sort"
	"sync/atomic"

	"fuzzydup/internal/distance"
)

// Pruned is a drop-in replacement for Exact that answers every query
// bit-for-bit identically while skipping most exact-metric evaluations.
// It layers a multi-index Hamming certificate (bands.go) over the
// certified linear scan (Scan, scan.go):
//
//  1. Band retrieval: the query's nonzero-band matches form a candidate
//     set; every non-candidate is at Hamming distance >= z from the query
//     signature, where z is the query's nonzero band count, so
//     max(qm, rm) >= ceil(z/2) missing bits, so its edit count is at
//     least E = ceil(ceil(z/2)/divisor). Folding in the free
//     length-difference bound (edits >= |qlen - rlen|, over denominator
//     max(qlen, rlen)) yields a per-query normalized floor
//     floor(q) = E / (qlen + E): rlen <= qlen gives E/qlen, longer
//     records give max(E, rlen-qlen)/rlen, minimized at rlen = qlen + E.
//     When the answer provably lives below floor(q) — theta <= floor(q)
//     for range queries, worst-of-a-full-top-k strictly below floor(q)
//     for TopK — only candidates need exact verification, each under the
//     scan's per-pair bound and bounded kernels.
//  2. Otherwise TopK falls through to Scan, and Range/GrowthCount check
//     every record under the scan's per-pair bound.
//
// Both filters are provably lossless (see Scan for the per-pair
// argument): a record is skipped only when a sound lower bound proves
// its true distance cannot change the answer, strict comparisons leave
// all (distance, ID) ties to exact verification, and verified distances
// are byte-identical to Exact's.
//
// Fallback rules (each query delegates wholesale to Exact, counted in
// PrunedCounters' fallbacks):
//
//   - the metric is not edit-family ("ed"/"damerau" by Name(), looked up
//     through counting wrappers): no certified bound exists;
//   - the query's signature is all-zero (its normalized form is empty,
//     shorter than a q-gram): the band certificate is vacuous for it;
//   - TopK with k >= n-1: the answer is the whole relation anyway.
//
// Pruned holds no mutable per-query state outside the scan's sync.Pool
// and atomic counters, so it is safe for unlimited concurrent queries.
type Pruned struct {
	scan  *Scan
	zero  []bool // per record: signature is all-zero
	bands *BandIndex

	// floors[i] is the per-query band-certificate floor E/(lens[i] + E)
	// with E = ceil(ceil(z/2)/divisor) over record i's nonzero band count
	// z: every record NOT retrieved by the band index for query i has
	// normalized distance >= floors[i]. Zero for zero-signature records
	// (the certificate is vacuous; those queries fall back anyway).
	floors []float64

	pruned     atomic.Int64
	candidates atomic.Int64
	fallbacks  atomic.Int64
}

// PrunedConfig tunes a Pruned index. The zero value selects defaults.
type PrunedConfig struct {
	// Bands is the multi-index band count (default DefaultBands). More
	// bands raise the Hamming floor (stronger certificates, more range
	// queries served by band retrieval) but enlarge candidate sets.
	Bands int
}

// NewPruned builds a prefiltered exact index over keys under the given
// metric. Construction is the scan's O(n) signature hashing plus the
// band tables; for metrics without a certified bound the tables are
// skipped and the index is a pure delegate to Exact.
func NewPruned(keys []string, metric distance.Metric, cfg PrunedConfig) (*Pruned, error) {
	nb := cfg.Bands
	if nb == 0 {
		nb = DefaultBands
	}
	builder, err := NewBandBuilder(nb)
	if err != nil {
		return nil, err
	}
	s := NewScan(keys, metric)
	p := &Pruned{scan: s}
	if !s.Prefiltered() {
		return p, nil
	}
	n := len(keys)
	p.zero = make([]bool, n)
	for i := range keys {
		sig := s.sigOf(i)
		p.zero[i] = sig == Signature{}
		builder.Add(i, sig)
	}
	p.bands = builder.Build()
	p.floors = make([]float64, n)
	for i := range keys {
		z := p.bands.NonzeroBands(s.sigOf(i))
		if z == 0 {
			continue // zero signature: vacuous certificate, query falls back
		}
		// Hamming >= z means max(qm, rm) >= ceil(z/2) missing bits, so at
		// least E edits; combined with the length-difference bound the
		// normalized distance of every non-candidate is >= E/(qlen + E).
		halfBits := (z + 1) / 2
		e := (halfBits + s.divisor - 1) / s.divisor
		p.floors[i] = float64(e) / float64(s.lens[i]+e)
	}
	return p, nil
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
	if !s.Prefiltered() || k >= n-1 || p.zero[id] {
		p.fallbacks.Add(1)
		return s.exact.TopK(id, k)
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	qsig := s.sigOf(id)
	if ns, ok := p.topKBanded(id, qsig, k, sc); ok {
		return ns
	}
	ns, verified := s.topK(qsig, s.nrunes[id], id, k, sc)
	p.pruned.Add(int64(n - 1 - verified))
	p.candidates.Add(int64(verified))
	return ns
}

// topKBanded attempts the band-certified top-k: verify only the band
// candidates, then certify that every non-candidate — all at distance
// >= floors[id] — lies strictly beyond the worst retained distance. On
// any failure it reports ok=false and the caller runs the full scan
// (with a fresh accumulator, so nothing is double-inserted).
func (p *Pruned) topKBanded(id int, qsig Signature, k int, sc *scanScratch) ([]Neighbor, bool) {
	floor := p.floors[id]
	if floor == 0 {
		return nil, false
	}
	s := p.scan
	n := s.Len()
	sc.cands = p.bands.AppendCandidates(qsig, sc.cands[:0])
	cands := sc.cands
	// The candidate set includes id itself; certification needs k full
	// slots from the others, and a near-total candidate set means the
	// full scan's counting sort is the better engine anyway.
	if len(cands)-1 < k || len(cands) > n/2 {
		return nil, false
	}
	if cap(sc.candLbs) < len(cands) {
		sc.candLbs = make([]float64, 0, len(cands))
		sc.candPos = make([]int32, 0, len(cands))
	}
	lbs := sc.candLbs[:0]
	pos := sc.candPos[:0]
	qr := s.nrunes[id]
	qlen := len(qr)
	for ci, u := range cands {
		if int(u) == id {
			continue
		}
		lbs = append(lbs, s.lowerBound(qsig, qlen, int(u)))
		pos = append(pos, int32(ci))
	}
	sc.candLbs, sc.candPos = lbs, pos
	sort.Sort(&candOrder{cands: cands, lbs: lbs, pos: pos})
	// Pre-check before any kernel work: the final worst distance is at
	// least the k-th smallest candidate bound, so certification is
	// hopeless unless that bound sits strictly below the floor.
	if lbs[k-1] >= floor {
		return nil, false
	}
	acc := topkAcc{k: k}
	verified := 0
	for oi, ci := range pos {
		u := int(cands[ci])
		denom := s.denom(qlen, u)
		maxEd := denom
		if acc.full() {
			if lbs[oi] > acc.worst() {
				break // bounds ascend: nothing later qualifies either
			}
			maxEd = capEdits(denom, acc.worst())
		}
		verified++
		if d, ok := s.verifyDist(qr, u, denom, maxEd, sc); ok {
			acc.insert(Neighbor{ID: u, Dist: d})
		}
	}
	p.candidates.Add(int64(verified))
	if !acc.full() || floor <= acc.worst() {
		return nil, false
	}
	p.pruned.Add(int64(n - 1 - verified))
	out := make([]Neighbor, len(acc.best))
	copy(out, acc.best)
	return out, true
}

// candOrder sorts candidate positions by (lower bound, ID).
type candOrder struct {
	cands []int32
	lbs   []float64
	pos   []int32
}

func (o *candOrder) Len() int { return len(o.pos) }
func (o *candOrder) Less(i, j int) bool {
	if o.lbs[i] != o.lbs[j] {
		return o.lbs[i] < o.lbs[j]
	}
	return o.cands[o.pos[i]] < o.cands[o.pos[j]]
}
func (o *candOrder) Swap(i, j int) {
	o.lbs[i], o.lbs[j] = o.lbs[j], o.lbs[i]
	o.pos[i], o.pos[j] = o.pos[j], o.pos[i]
}

// Range implements Index, bit-for-bit identical to Exact.Range.
func (p *Pruned) Range(id int, theta float64) []Neighbor {
	if !p.scan.Prefiltered() || p.zero[id] {
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
	if !p.scan.Prefiltered() || p.zero[id] {
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
// distance d < theta. When theta sits at or below the query's band
// certificate floor, only band candidates can qualify (every
// non-candidate is at distance >= floors[id] >= theta) and just those
// are examined; otherwise the whole relation is scanned under the
// per-pair bound. Either way a record is skipped only on a certified
// proof that d >= theta.
func (p *Pruned) forWithin(id int, theta float64, yield func(u int, d float64)) {
	s := p.scan
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	n := s.Len()
	qsig := s.sigOf(id)
	qr := s.nrunes[id]
	qlen := len(qr)
	verified := 0
	examine := func(u int) {
		if s.lowerBound(qsig, qlen, u) >= theta {
			p.pruned.Add(1)
			return
		}
		denom := s.denom(qlen, u)
		maxEd := capEdits(denom, theta)
		verified++
		if d, ok := s.verifyDist(qr, u, denom, maxEd, sc); ok && d < theta {
			yield(u, d)
		}
	}
	if fl := p.floors[id]; fl > 0 && theta <= fl {
		sc.cands = p.bands.AppendCandidates(qsig, sc.cands[:0])
		for _, u := range sc.cands {
			if int(u) != id {
				examine(int(u))
			}
		}
		// The candidate list includes the query itself (it matches all
		// its own nonzero bands); everything outside it was band-pruned.
		p.pruned.Add(int64(n - len(sc.cands)))
		p.candidates.Add(int64(verified))
		return
	}
	for u := 0; u < n; u++ {
		if u != id {
			examine(u)
		}
	}
	p.candidates.Add(int64(verified))
}
