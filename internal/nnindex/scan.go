package nnindex

import (
	"sort"
	"sync"

	"fuzzydup/internal/distance"
	"fuzzydup/internal/strutil"
)

// Scan is the certified linear nearest-neighbor scan: the one engine
// behind Pruned.TopK when the band certificate does not hold, and behind
// the online query path's misses (internal/querysnap). It returns the
// top-k bit-for-bit identically to an exact scan while skipping most
// exact-metric evaluations:
//
//  1. Sound lower bound. One bit-parallel pass over the flat signature
//     table (sig.go) bounds every record: the larger of the gram-damage
//     bound ceil(max(qm, rm)/divisor) — qm, rm the two directional
//     missing-bit counts — and the free length difference (every
//     length-changing edit costs one, for OSA too), over the pair's true
//     denominator, the longer normalized length. Hash collisions only
//     lower popcounts, so a bound never exceeds the true distance.
//  2. Ordering. A counting sort into boundBuckets quantized buckets
//     orders records by bound, so the running k-th best tightens as fast
//     as possible.
//  3. Strict pruning. A record is skipped only when its bound strictly
//     exceeds the retained worst distance, and once a bucket's floor
//     does, every later record is skipped at once. A skipped record is
//     strictly farther than the worst, so it cannot enter the answer even
//     on a (distance, ID) tie; ties are broken among verified records
//     only, in ID order, exactly as the exact scan breaks them.
//  4. Conservative verification. Survivors are verified with bounded
//     kernels capped just above the retained worst (capEdits). An
//     overflow proves the distance exceeds the worst; otherwise the
//     kernel returns the exact edit count, and the distance is the same
//     float64 division over the same normalized-rune lengths as
//     distance.Edit/Damerau, so answers are byte-identical to Exact's.
//
// Only the edit-family metrics ("ed"/"damerau" by Name(), looked up
// through counting wrappers) admit the bound. For any other metric the
// scan builds no tables and every query verifies every record.
//
// A Scan is immutable after NewScan except for a sync.Pool of scratch,
// so it is safe for unlimited concurrent queries.
type Scan struct {
	exact *Exact

	// divisor is the per-edit gram-damage bound of the metric (see
	// sig.go): SigQ for "ed", SigQ+1 for "damerau", 0 for metrics with
	// no certified bound.
	divisor int
	sigs    []uint64 // flat signature table, SigWords words per record
	lens    []int    // normalized rune length per record
	nrunes  [][]rune // normalized runes per record (bounded-verify input)

	scratch sync.Pool
}

// NewScan builds the scan over keys (record i has ID i) under the given
// metric: O(n) signature hashing and normalization for the certified
// metrics, nothing beyond the exact delegate for the others.
func NewScan(keys []string, metric distance.Metric) *Scan {
	s := &Scan{exact: NewExact(keys, metric)}
	switch metric.Name() {
	case "ed":
		s.divisor = SigQ
	case "damerau":
		s.divisor = SigQ + 1
	default:
		return s
	}
	s.sigs = BuildSignatures(keys)
	s.lens = make([]int, len(keys))
	s.nrunes = make([][]rune, len(keys))
	for i, k := range keys {
		r := []rune(strutil.Normalize(k))
		s.nrunes[i] = r
		s.lens[i] = len(r)
	}
	return s
}

// Len returns the number of records scanned.
func (s *Scan) Len() int { return s.exact.Len() }

// Prefiltered reports whether the metric admits the certified signature
// bound; when false every query verifies every record.
func (s *Scan) Prefiltered() bool { return s.divisor > 0 }

// Nearest returns the k nearest records to key, which need not be in the
// corpus, ascending by (distance, ID), and how many records it verified
// with the exact metric; the other Len() - verified were pruned by a
// certified bound. k is clamped to Len().
func (s *Scan) Nearest(key string, k int) ([]Neighbor, int) {
	n := s.Len()
	if k <= 0 || n == 0 {
		return nil, 0
	}
	if k > n {
		k = n
	}
	if s.divisor == 0 {
		return s.exact.nearest(key, -1, k), n
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	return s.topK(NewSignature(key), []rune(strutil.Normalize(key)), -1, k, sc)
}

func (s *Scan) sigOf(i int) Signature {
	var sig Signature
	copy(sig[:], s.sigs[i*SigWords:(i+1)*SigWords])
	return sig
}

// scanScratch is one query's worth of reusable buffers: the scan's
// bounds, buckets and order, the bounded kernels' DP rows, and Pruned's
// band-candidate lists.
type scanScratch struct {
	lbs      []float64 // per-record lower bounds
	bucketOf []uint8   // per-record counting-sort buckets
	order    []int32   // records in ascending-bucket order
	ed       distance.BoundedScratch

	cands   []int32   // band candidate IDs
	candLbs []float64 // per-candidate lower bounds
	candPos []int32   // candidate positions sorted by (bound, ID)
}

func (s *Scan) getScratch() *scanScratch {
	sc, _ := s.scratch.Get().(*scanScratch)
	if sc == nil {
		sc = &scanScratch{}
	}
	n := s.Len()
	if cap(sc.lbs) < n {
		sc.lbs = make([]float64, n)
		sc.bucketOf = make([]uint8, n)
		sc.order = make([]int32, n)
	}
	sc.lbs = sc.lbs[:n]
	sc.bucketOf = sc.bucketOf[:n]
	sc.order = sc.order[:n]
	return sc
}

// lowerBound is the certified per-pair lower bound on the normalized
// distance between a query (signature qsig, normalized length qlen) and
// record i.
func (s *Scan) lowerBound(qsig Signature, qlen, i int) float64 {
	qm, rm := MissingBitsFlat(s.sigs, i, qsig)
	m := qm
	if rm > m {
		m = rm
	}
	denom := s.denom(qlen, i)
	if denom == 0 {
		return 0
	}
	edits := (m + s.divisor - 1) / s.divisor
	if ld := qlen - s.lens[i]; ld > edits {
		edits = ld
	} else if -ld > edits {
		edits = -ld
	}
	return float64(edits) / float64(denom)
}

// denom is the normalized-distance denominator of a query of normalized
// length qlen against record i: the longer of the two lengths.
func (s *Scan) denom(qlen, i int) int {
	if s.lens[i] > qlen {
		return s.lens[i]
	}
	return qlen
}

// verifyDist computes the exact normalized distance between the query's
// normalized runes qr and record i with a bounded kernel capped at maxEd
// edit operations. ok=false proves the true edit count strictly exceeds
// maxEd (so the true distance strictly exceeds maxEd/denom). The
// arithmetic — float64 edit count over float64 max normalized length, 0
// for an empty denominator — is exactly distance.Edit/Damerau's, so
// returned values are bit-identical to metric.Distance.
func (s *Scan) verifyDist(qr []rune, i, denom, maxEd int, sc *scanScratch) (float64, bool) {
	if denom == 0 {
		return 0, true
	}
	var d int
	if s.divisor == SigQ+1 {
		d = distance.BoundedOSARunes(qr, s.nrunes[i], maxEd, &sc.ed)
	} else {
		d = distance.BoundedLevenshteinRunes(qr, s.nrunes[i], maxEd, &sc.ed)
	}
	if d > maxEd {
		return 0, false
	}
	return float64(d) / float64(denom), true
}

// capEdits is the kernel cap for a pair with denominator denom when only
// distances up to limit matter: just above limit*denom, and never above
// denom (an edit count never exceeds the longer length). Any true edit
// count e with e/denom <= limit satisfies e <= floor(limit*denom)+1, so
// every record that could still enter the answer (ties included) gets
// its exact distance; an overflow proves distance > limit.
func capEdits(denom int, limit float64) int {
	if f := limit * float64(denom); f < float64(denom) {
		return int(f) + 1
	}
	return denom
}

// topkAcc maintains the running top-k, ascending by (distance, ID) — the
// same total order as Exact's heap, so the final slice is bit-identical.
type topkAcc struct {
	k    int
	best []Neighbor
}

func (a *topkAcc) full() bool     { return len(a.best) == a.k }
func (a *topkAcc) worst() float64 { return a.best[len(a.best)-1].Dist }

func (a *topkAcc) insert(nb Neighbor) {
	pos := sort.Search(len(a.best), func(i int) bool {
		if a.best[i].Dist != nb.Dist {
			return a.best[i].Dist > nb.Dist
		}
		return a.best[i].ID > nb.ID
	})
	if len(a.best) < a.k {
		a.best = append(a.best, Neighbor{})
	} else if pos == len(a.best) {
		return
	}
	copy(a.best[pos+1:], a.best[pos:])
	a.best[pos] = nb
}

// boundBuckets quantizes lower bounds for the counting sort; bounds live
// in [0, 1] for the certified metrics, and anything >= 1 lands in the
// last bucket.
const boundBuckets = 256

// topK runs the scan for a query with signature qsig and normalized runes
// qr, skipping record skip (-1 when the query is not a corpus record). It
// returns the k nearest records and how many it verified; every other
// record except skip was pruned.
func (s *Scan) topK(qsig Signature, qr []rune, skip, k int, sc *scanScratch) ([]Neighbor, int) {
	n := s.Len()
	qlen := len(qr)
	lbs, bucketOf, order := sc.lbs, sc.bucketOf, sc.order
	var counts [boundBuckets + 1]int32
	for i := 0; i < n; i++ {
		lb := s.lowerBound(qsig, qlen, i)
		lbs[i] = lb
		b := int(lb * boundBuckets)
		if b >= boundBuckets {
			b = boundBuckets - 1
		}
		bucketOf[i] = uint8(b)
		counts[b+1]++
	}
	for b := 1; b <= boundBuckets; b++ {
		counts[b] += counts[b-1]
	}
	next := counts // array copy: running placement cursors
	for i := 0; i < n; i++ {
		b := bucketOf[i]
		order[next[b]] = int32(i)
		next[b]++
	}

	acc := topkAcc{k: k, best: make([]Neighbor, 0, k)}
	verified := 0
	for _, oi := range order {
		i := int(oi)
		if i == skip {
			continue
		}
		denom := s.denom(qlen, i)
		maxEd := denom // edit count never exceeds the longer length
		if acc.full() {
			worst := acc.worst()
			if float64(bucketOf[i])/boundBuckets > worst {
				break // buckets ascend: nothing later qualifies either
			}
			if lbs[i] > worst {
				continue
			}
			maxEd = capEdits(denom, worst)
		}
		verified++
		if d, ok := s.verifyDist(qr, i, denom, maxEd, sc); ok {
			acc.insert(Neighbor{ID: i, Dist: d})
		}
	}
	return acc.best, verified
}
