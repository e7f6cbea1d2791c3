package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"fuzzydup/internal/bforder"
	"fuzzydup/internal/nnindex"
)

// LookupOrder selects the phase-1 index lookup order (Section 4.1.1).
type LookupOrder int

// Lookup orders compared in Figure 8.
const (
	// OrderBF is the breadth-first order: each tuple is looked up right
	// after its nearest neighbors, localizing index accesses.
	OrderBF LookupOrder = iota
	// OrderRandom is the random-permutation baseline.
	OrderRandom
	// OrderSequential scans tuples in ID order.
	OrderSequential
)

// String implements fmt.Stringer.
func (o LookupOrder) String() string {
	switch o {
	case OrderBF:
		return "bf"
	case OrderRandom:
		return "random"
	case OrderSequential:
		return "sequential"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Phase1Options tunes the nearest-neighbor computation phase.
type Phase1Options struct {
	// Order is the lookup order (default OrderBF).
	Order LookupOrder
	// Seed seeds the random order; ignored otherwise.
	Seed int64
	// Rand, when non-nil, supplies the random order's source instead of
	// Seed. Injecting a *rand.Rand keeps concurrent phase-1 runs off any
	// shared source and makes order experiments reproducible.
	Rand *rand.Rand
	// Ctx, when non-nil, is polled between index lookups: once it is
	// cancelled, the remaining lookups are skipped and ComputeNN returns
	// ctx.Err(). Phase 1 dominates the algorithm's cost, so this is where
	// cancellation must land for a killed job to stop burning CPU.
	Ctx context.Context
	// MaxQueue bounds the BF queue (<= 0 selects the package default).
	MaxQueue int
	// Parallel, when > 1, fans the lookups across that many goroutines.
	// Only honored for indexes that declare themselves safe for
	// concurrent queries (Exact and Pruned are; the disk-backed q-gram
	// index is not — its buffer pool and memo serialize poorly and the
	// BF-order locality it depends on would be destroyed anyway). The
	// output is identical to a serial run.
	Parallel int
	// Progress, when non-nil, is called after each tuple's lookup with
	// the number completed so far and the total. Phase 1 dominates the
	// algorithm's cost (the paper's complexity analysis), so this is the
	// hook long-running callers want. Under Parallel it is invoked from
	// worker goroutines (in completion order, with monotone counts).
	Progress func(done, total int)
	// Stats, when non-nil, accumulates phase-1 instrumentation: lookups
	// completed, index probes issued, and the worker fan-out actually
	// used. Counters are atomic, so one Stats value is safe across the
	// parallel path, and callers may read them while the run is live.
	Stats *Phase1Stats
}

// Phase1Stats counts the work of one (or several) ComputeNN runs. All
// fields are atomic: one Stats value may be shared across concurrent
// ComputeNN calls (the blocked pipeline solves blocks in parallel
// against a single accumulator).
type Phase1Stats struct {
	// Lookups is the number of tuples whose neighbor lists were fetched.
	Lookups atomic.Int64
	// Probes is the number of index probe calls issued (TopK, Range, and
	// GrowthCount all count as one probe each).
	Probes atomic.Int64
	// Workers is the lookup fan-out of the most recent run: 1 for the
	// serial orders, the effective goroutine count under Parallel.
	Workers atomic.Int32
	// Pruned, Candidates, and Fallbacks mirror the certified scan's
	// counters (nnindex.Pruned, or anything else implementing
	// PrunedReporter): records excluded by a certified bound without an
	// exact metric call, records verified by the bounded kernel, and
	// whole queries that fell back to metric calls over every record.
	// All zero when the index carries no certified scan.
	Pruned     atomic.Int64
	Candidates atomic.Int64
	Fallbacks  atomic.Int64
}

// PrunedReporter is implemented by indexes that prune with certified
// bounds and account for it (nnindex.Pruned). ComputeNN snapshots the
// cumulative counters around a run and adds the delta to its Stats, so
// shared indexes attribute work to the runs that caused it.
type PrunedReporter interface {
	PrunedCounters() (pruned, candidates, fallbacks int64)
}

// addProbes is nil-safe so the hot path stays branch-light at the call
// sites.
func (s *Phase1Stats) addProbes(n int64) {
	if s != nil {
		s.Probes.Add(n)
	}
}

// ConcurrentQuerier marks an index whose query methods are safe for
// concurrent use. Phase 1 parallelizes only across such indexes.
type ConcurrentQuerier interface {
	ConcurrentQueries()
}

// ComputeNN runs phase 1 of the algorithm (Figure 5's PrepareNNLists): for
// every tuple, fetch its neighbor list under the cut specification — the
// K nearest neighbors for DE_S(K), all neighbors within θ for DE_D(θ) —
// and its neighborhood growth ng(v) = |{u : d(u,v) < p·nn(v)}| (self-
// inclusive). Tuples are looked up in the order given by opts, which does
// not change the output, only the index's access locality.
func ComputeNN(idx nnindex.Index, cut Cut, p float64, opts Phase1Options) (*NNRelation, error) {
	if err := cut.Validate(); err != nil {
		return nil, err
	}
	if p == 0 {
		p = DefaultP
	}
	if p < 0 {
		return nil, fmt.Errorf("core: growth factor p = %g must be positive", p)
	}
	n := idx.Len()
	rel := &NNRelation{Rows: make([]NNRow, n), Cut: cut, P: p}

	var done int64
	visit := func(id int) []int {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			// Cancelled: skip the lookup. The orders still walk every
			// remaining ID, but each visit is now a no-op, so the run
			// winds down without further index work.
			return nil
		}
		row, neighbors := lookupOne(idx, cut, p, id, opts.Stats)
		rel.Rows[id] = row
		if opts.Stats != nil {
			opts.Stats.Lookups.Add(1)
		}
		if opts.Progress != nil {
			opts.Progress(int(atomic.AddInt64(&done, 1)), n)
		}
		return neighbors
	}

	var reporter PrunedReporter
	var pruned0, cands0, falls0 int64
	if opts.Stats != nil {
		if r, ok := idx.(PrunedReporter); ok {
			reporter = r
			pruned0, cands0, falls0 = r.PrunedCounters()
		}
	}

	finish := func() (*NNRelation, error) {
		if reporter != nil {
			pruned1, cands1, falls1 := reporter.PrunedCounters()
			opts.Stats.Pruned.Add(pruned1 - pruned0)
			opts.Stats.Candidates.Add(cands1 - cands0)
			opts.Stats.Fallbacks.Add(falls1 - falls0)
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		return rel, nil
	}

	if opts.Stats != nil {
		opts.Stats.Workers.Store(1)
	}
	if opts.Parallel > 1 {
		if _, ok := idx.(ConcurrentQuerier); ok {
			workers := opts.Parallel
			if workers > n {
				workers = n
			}
			if opts.Stats != nil {
				opts.Stats.Workers.Store(int32(workers))
			}
			parallelVisit(n, workers, visit)
			return finish()
		}
		// Fall through to the serial orders for indexes that cannot take
		// concurrent queries.
	}

	switch opts.Order {
	case OrderBF:
		bforder.BF(n, opts.MaxQueue, visit)
	case OrderRandom:
		if opts.Rand != nil {
			bforder.RandomFrom(n, opts.Rand, visit)
		} else {
			bforder.Random(n, opts.Seed, visit)
		}
	case OrderSequential:
		bforder.Sequential(n, visit)
	default:
		return nil, fmt.Errorf("core: unknown lookup order %d", int(opts.Order))
	}
	return finish()
}

// parallelVisit fans ids 0..n-1 across workers. Each row is written by
// exactly one goroutine, so no synchronization beyond the WaitGroup is
// needed.
func parallelVisit(n, workers int, visit func(id int) []int) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(atomic.AddInt64(&next, 1))
				if id >= n {
					return
				}
				visit(id)
			}
		}()
	}
	wg.Wait()
}

// lookupOne performs the per-tuple phase-1 work: fetch the neighbor list
// under the cut and compute the self-inclusive neighborhood growth.
func lookupOne(idx nnindex.Index, cut Cut, p float64, id int, stats *Phase1Stats) (NNRow, []int) {
	var list []nnindex.Neighbor
	if cut.IsSize() {
		list = idx.TopK(id, cut.MaxSize)
	} else {
		list = idx.Range(id, cut.Diameter)
	}
	stats.addProbes(1)
	ng := 1 // the tuple itself is inside its own growth sphere
	if len(list) > 0 {
		ng += idx.GrowthCount(id, GrowthRadius(list[0].Dist, p))
		stats.addProbes(1)
	} else if !cut.IsSize() {
		// Diameter cut with an empty θ-neighborhood: nn(v) > θ, so the
		// growth sphere cannot be derived from the range query. Such a
		// tuple can only ever be a singleton (any group mate would be
		// within θ), so its NG is never aggregated; fall back to the
		// index's nearest neighbor to keep the column meaningful.
		stats.addProbes(1)
		if nn := idx.TopK(id, 1); len(nn) > 0 && nn[0].Dist > 0 {
			ng += idx.GrowthCount(id, p*nn[0].Dist)
			stats.addProbes(1)
		}
	}
	neighbors := make([]int, len(list))
	for i, nb := range list {
		neighbors[i] = nb.ID
	}
	return NNRow{NNList: list, NG: ng}, neighbors
}

// ZeroDistanceRadius is the growth-sphere radius used for tuples whose
// nearest neighbor is at distance zero: the paper assumes distinct tuples
// have non-zero distances, so the sphere degenerates to the smallest
// positive radius, counting exactly the zero-distance twins.
const ZeroDistanceRadius = 1e-12

// GrowthRadius is the growth-sphere radius phase 1 counts ng(v) within
// for a tuple whose nearest neighbor lies at distance nn: p·nn, or
// ZeroDistanceRadius for an exact duplicate. The incremental engine's
// relookups and the blocked solve's certificate radii use it too, so
// all three agree on the sphere bit for bit.
func GrowthRadius(nn, p float64) float64 {
	if nn == 0 {
		return ZeroDistanceRadius
	}
	return p * nn
}

// smallestPositive is the radius used for zero-distance nearest neighbors.
const smallestPositive = ZeroDistanceRadius
