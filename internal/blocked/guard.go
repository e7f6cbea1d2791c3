package blocked

import (
	"sort"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
)

// guardSlack absorbs floating-point noise in the pivot lower bounds: the
// triangle inequality is exact in the reals but pivot differences are
// computed in float64, so windows are padded by this margin. The measured
// violation test itself uses the exact reach value.
const guardSlack = 1e-9

// guard decides, for a record v with certificate radius r, whether any
// record outside v's block lies within r — the one question the
// equivalence proof reduces to (DESIGN §8).
//
// The default implementation prunes with pivot certificates: a handful of
// reference records chosen farthest-first, with f_j(v) = d(v, pivot_j)
// precomputed for every record. The triangle inequality gives
// |f_j(u) − f_j(v)| ≤ d(u, v), so only records inside the ±r window of
// every pivot projection can possibly violate, and those windows are
// binary-searched on per-pivot sorted arrays. The pivot table is built
// once — distances do not change across guard rounds.
//
// The pivot pruning is only sound for metrics satisfying the triangle
// inequality (the numeric and set-overlap metrics do; normalized edit
// distance is not guaranteed to). Exhaustive mode replaces the pruned
// scan with a full foreign scan, which assumes nothing beyond symmetry.
type guard struct {
	keys       []string
	metric     distance.Metric
	exhaustive bool

	f    [][]float64 // f[p][id]: distance from record id to pivot p
	ord  [][]int     // ord[p]: record IDs ascending by (f[p], ID)
	fs   [][]float64 // fs[p][i] = f[p][ord[p][i]], for binary search
	pos0 []int       // pos0[id]: index of id in ord[0], for widening walks

	probes int64 // distance calls issued by the guard and the pivot build
}

// newGuard builds the pivot table of DefaultPivots pivots. Pivot 0 is
// record 0; each further pivot is the record farthest from all chosen
// pivots (ties to the smallest ID), the standard farthest-first
// traversal — deterministic, so the whole blocked solve is. Exhaustive
// mode keeps only pivot 0, which the widening walk still needs as a
// proximity order.
func newGuard(keys []string, metric distance.Metric, exhaustive bool) *guard {
	g := &guard{keys: keys, metric: metric, exhaustive: exhaustive}
	n := len(keys)
	if n == 0 {
		return g
	}
	pivots := DefaultPivots
	if exhaustive {
		pivots = 1
	}
	if pivots > n {
		pivots = n
	}
	dmin := make([]float64, n) // distance to the nearest chosen pivot
	pivot := 0
	for len(g.f) < pivots {
		f := make([]float64, n)
		for id := range keys {
			if id == pivot {
				continue // d(x, x) = 0 by the Metric contract
			}
			f[id] = metric.Distance(keys[pivot], keys[id])
			g.probes++
		}
		if len(g.f) == 0 {
			copy(dmin, f)
		} else {
			for id, d := range f {
				if d < dmin[id] {
					dmin[id] = d
				}
			}
		}
		g.f = append(g.f, f)
		// Farthest-first choice of the next pivot.
		next, far := -1, 0.0
		for id, d := range dmin {
			if d > far {
				next, far = id, d
			}
		}
		if next < 0 {
			break // every record coincides with a pivot; more add nothing
		}
		pivot = next
	}
	g.ord = make([][]int, len(g.f))
	g.fs = make([][]float64, len(g.f))
	for p, f := range g.f {
		ord := make([]int, n)
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(i, j int) bool {
			if f[ord[i]] != f[ord[j]] {
				return f[ord[i]] < f[ord[j]]
			}
			return ord[i] < ord[j]
		})
		fs := make([]float64, n)
		for i, id := range ord {
			fs[i] = f[id]
		}
		g.ord[p] = ord
		g.fs[p] = fs
	}
	g.pos0 = make([]int, n)
	for i, id := range g.ord[0] {
		g.pos0[id] = i
	}
	return g
}

// preMerge seeds the union-find with the estimated reach graph before
// the first block solve. For every record it gathers a handful of nearby
// candidates (walking the pivot-0 projection outward), measures them,
// estimates the record's certificate radius from those measurements, and
// unions the candidates inside it.
//
// This pass is what makes the solve/guard loop converge to a *useful*
// blocking instead of one corpus-wide block: without it, the first
// round's blocks are tiny, their local nn(v) and K-th-neighbor distances
// wildly overestimate every certificate radius, and the resulting guard
// merges cross genuine block boundaries — merges are irreversible, so
// the overshoot cascades. Candidate-measured estimates are upper bounds
// of the true radii but tight ones, so the unions they trigger closely
// track the true reach graph; anything the candidate window misses is
// caught later by the exact guard, and anything it over-merges only
// costs block size, never correctness.
func (g *guard) preMerge(u *unionFind, cut core.Cut, p float64, sizeWant int) {
	if p == 0 {
		p = core.DefaultP
	}
	n := len(g.keys)
	m := 8
	if cut.IsSize() && 4*sizeWant > m {
		m = 4 * sizeWant
	}
	type cand struct {
		id int
		d  float64
	}
	cands := make([]cand, 0, m)
	for v := 0; v < n; v++ {
		pos := g.pos0[v]
		fv := g.f[0][v]
		l, r := pos-1, pos+1
		cands = cands[:0]
		for len(cands) < m && (l >= 0 || r < n) {
			var pick int
			switch {
			case l < 0:
				pick = r
				r++
			case r >= n:
				pick = l
				l--
			default:
				if fv-g.fs[0][l] <= g.fs[0][r]-fv {
					pick = l
					l--
				} else {
					pick = r
					r++
				}
			}
			w := g.ord[0][pick]
			g.probes++
			cands = append(cands, cand{w, g.metric.Distance(g.keys[v], g.keys[w])})
		}
		if len(cands) == 0 {
			continue
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].id < cands[j].id
		})
		var reach float64
		if cut.IsSize() {
			l := sizeWant - 1
			if l < 1 {
				continue
			}
			reach = core.GrowthRadius(cands[0].d, p)
			li := l - 1
			if li >= len(cands) {
				li = len(cands) - 1
			}
			if d := cands[li].d; d > reach {
				reach = d
			}
		} else {
			// Diameter cut: union the measured θ-neighbors — the
			// single-linkage θ-components every group must live inside.
			// The growth sphere p·nn(v) is deliberately NOT estimated
			// here: when the candidate window misses the true nearest
			// neighbor, the nn estimate inflates grossly and the resulting
			// unions fuse far-apart regions. Growth-sphere crossings are
			// instead caught by the exact guard, whose radii come from
			// solved blocks.
			reach = cut.Diameter
		}
		for _, c := range cands {
			if c.d > reach {
				break
			}
			u.union(v, c.id)
		}
	}
}

// maxViolationsPerRecord caps how many reach edges one record reports
// per guard round. Collecting every offender at once is what lets merge
// chains collapse within a round instead of one link per round; the cap
// keeps degenerate piles (thousands of records inside one reach sphere,
// usually already co-blocked by preMerge anyway) from turning a guard
// pass quadratic. A capped record's remaining offenders, if any survive
// the merges it triggered, surface in the next round's re-guard.
const maxViolationsPerRecord = 32

// foreignWithin returns records outside v's component within distance r
// of v (up to maxViolationsPerRecord of them), or nil when none exist.
// The comparison is non-strict (d ≤ r): a foreign record at exactly the
// reach radius could still displace a local neighbor through the
// (distance, ID) tie-break, so ties merge conservatively.
func (g *guard) foreignWithin(u *unionFind, v int, r float64) []int {
	rv := u.find(v)
	var hits []int
	if g.exhaustive {
		for w := range g.keys {
			if w == v || u.find(w) == rv {
				continue
			}
			g.probes++
			if g.metric.Distance(g.keys[v], g.keys[w]) <= r {
				hits = append(hits, w)
				if len(hits) >= maxViolationsPerRecord {
					break
				}
			}
		}
		return hits
	}
	bound := r + guardSlack
	// Scan the pivot whose window is tightest, filtering by the rest.
	best, bestLo, bestHi := -1, 0, 0
	for p := range g.f {
		fv := g.f[p][v]
		lo := sort.SearchFloat64s(g.fs[p], fv-bound)
		hi := sort.Search(len(g.fs[p]), func(i int) bool { return g.fs[p][i] > fv+bound })
		if best < 0 || hi-lo < bestHi-bestLo {
			best, bestLo, bestHi = p, lo, hi
		}
	}
scan:
	for i := bestLo; i < bestHi; i++ {
		w := g.ord[best][i]
		if w == v || u.find(w) == rv {
			continue
		}
		for p := range g.f {
			if p == best {
				continue
			}
			if diff := g.f[p][w] - g.f[p][v]; diff > bound || diff < -bound {
				continue scan
			}
		}
		g.probes++
		if g.metric.Distance(g.keys[v], g.keys[w]) <= r {
			hits = append(hits, w)
			if len(hits) >= maxViolationsPerRecord {
				break
			}
		}
	}
	return hits
}

// widen grows v's component to at least want members: walk outward from
// v in the pivot-0 projection order (which enumerates candidates in
// increasing lower bound |f₀(u) − f₀(v)| ≤ d(u, v)), measure each
// chunk's true distances, and union the genuinely nearest candidates
// first. Measuring matters: the projection folds the space around the
// pivot, so records on opposite sides can look adjacent while being far
// apart — merging by projection alone inflates the widened block's
// local nn(v), which blows up every member's certificate radius and
// cascades into corpus-wide merges. Whatever the walk picks, the next
// guard round re-certifies it, so correctness never depends on the
// walk — only convergence speed does.
func (g *guard) widen(u *unionFind, v, want int) {
	n := len(g.keys)
	pos := g.pos0[v]
	fv := g.f[0][v]
	l, r := pos-1, pos+1
	type cand struct {
		id int
		d  float64
	}
	cands := make([]cand, 0, 4*want)
	for u.sizeOf(v) < want && (l >= 0 || r < n) {
		cands = cands[:0]
		for len(cands) < cap(cands) && (l >= 0 || r < n) {
			var pick int
			switch {
			case l < 0:
				pick = r
				r++
			case r >= n:
				pick = l
				l--
			default:
				if fv-g.fs[0][l] <= g.fs[0][r]-fv {
					pick = l
					l--
				} else {
					pick = r
					r++
				}
			}
			w := g.ord[0][pick]
			g.probes++
			cands = append(cands, cand{w, g.metric.Distance(g.keys[v], g.keys[w])})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d != cands[j].d {
				return cands[i].d < cands[j].d
			}
			return cands[i].id < cands[j].id
		})
		for _, c := range cands {
			if u.sizeOf(v) >= want {
				break
			}
			u.union(v, c.id)
		}
	}
}
