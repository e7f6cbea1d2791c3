// Package blocked implements the sharded solve pipeline: partition the
// corpus into blocks with the traditional candidate-generation keys of
// internal/blocking, solve each block independently (and concurrently)
// with the exact two-phase algorithm of internal/core, and reconcile the
// per-block partitions into one global answer.
//
// The paper dismisses blocking for the CS/SN framework because a block
// boundary can cut through a record's nearest neighborhood, silently
// corrupting nn(v), ng(v), and the mutual-NN structure (Section 6). This
// package keeps blocking honest with a boundary guard: after solving a
// block, every member gets a certificate radius — the distance that the
// partitioning phase could possibly have looked at (its (K−1)-th
// neighbor and growth sphere for DE_S(K); θ and the growth sphere for
// DE_D(θ)) — and the guard checks that no record outside the block lies
// within it. When a foreign record does, the two blocks merge and are
// re-solved; when a block is too small to certify a size cut, it is
// widened. The loop converges because merging only shrinks certificate
// radii, and the result is then bit-for-bit the partition core.Solve
// would produce on the whole corpus (the invariants and the proof sketch
// are in DESIGN.md §8). A bounded round budget backstops pathological
// inputs by falling back to one full exact solve, so the pipeline is
// never less correct than the monolithic path — only, at worst, no
// faster.
package blocked

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydup/internal/blocking"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// Defaults of the boundary guard and the round budget.
const (
	// DefaultPivots is the number of pivot certificates the boundary
	// guard prunes with.
	DefaultPivots = 3
	// DefaultMaxRounds bounds the solve/guard/merge loop; exceeding it
	// abandons sharding and solves the corpus as one block. Rounds past
	// the first only re-solve the handful of blocks the guard merged, so
	// a generous budget costs little; the cap exists for adversarial
	// corpora where merges trickle.
	DefaultMaxRounds = 32
)

// Window is one sorted-neighborhood pass used by the canopy pre-merge:
// records within a window of w positions under the ordering become
// candidate pairs whose measured distance may merge their blocks.
type Window struct {
	W     int
	Order blocking.Ordering
}

// Strategy chooses how the corpus is seeded into blocks. Keys are
// transitively merged (records sharing any key co-block); Windows feed
// the distance-gated canopy pass. The zero value selects
// DefaultStrategy. An intentionally empty strategy (keys nil, windows
// nil) is expressed the same way, and also works: every record starts as
// a singleton block and the guard grows blocks from scratch — correct,
// just slower.
type Strategy struct {
	Keys    []blocking.KeyFunc
	Windows []Window
}

// DefaultStrategy blocks on PrefixKey and the Soundex code of the first
// token, with one normalized-order sorted-neighborhood pass feeding the
// canopy.
func DefaultStrategy() Strategy {
	return Strategy{
		Keys:    []blocking.KeyFunc{PrefixKey, blocking.SoundexFirstToken()},
		Windows: []Window{{W: 8, Order: blocking.NormalizedOrder()}},
	}
}

// PrefixKey is DefaultStrategy's first blocking key: the first four
// runes of the normalized record, or no key when that form is empty.
// Records sharing it always share a block, which is why an equality
// predicate on it (dedupd's SQL block_key column) can restrict a blocked
// solve to the blocks it names.
func PrefixKey(key string) []string { return blocking.FirstNChars(4)(key) }

// Options tunes the blocked solve.
type Options struct {
	// Parallel is the block-solve worker-pool size; values below 1 mean
	// serial. Parallelism never changes the output: blocks are solved
	// independently and reconciled in a deterministic order.
	Parallel int
	// Exhaustive switches the guard to full foreign scans instead of
	// pruning with DefaultPivots pivot certificates. Required for metrics
	// that violate the triangle inequality (normalized edit distance is
	// not guaranteed to satisfy it); the pivot guard is only sound for
	// true metrics.
	Exhaustive bool
	// MaxRounds bounds the solve/guard/merge loop (default
	// DefaultMaxRounds); exceeding it forces one full-corpus solve.
	MaxRounds int
	// Ctx, when non-nil, cancels the solve between index lookups, like
	// core.Phase1Options.Ctx.
	Ctx context.Context
	// Stats, when non-nil, accumulates phase-1 lookup and probe counts
	// across all block solves; the counters are atomic, so one value is
	// shared by the whole worker pool.
	Stats *core.Phase1Stats
	// Prefilter is read by nothing: every block solve builds the
	// certified nnindex.Pruned (see SolveBlock).
	//
	// Deprecated: it has no effect; leave it unset.
	Prefilter bool
	// OnBlockSolved, when non-nil, is called once per block solve with
	// the block size and the solve duration. Calls are sequential and
	// deterministic in order.
	OnBlockSolved func(size int, d time.Duration)
	// Restrict, when non-nil, limits the solve to the blocks that
	// matter for a record predicate: only components containing at least
	// one record with Restrict(id) true are solved, guarded, and
	// reconciled; every other block is skipped wholesale. The certificate
	// machinery still runs in full for the active blocks — their members'
	// radii are checked against the entire corpus, and guard merges can
	// pull untouched records in — so the groups returned for covered
	// records (see Result.Covered) are bit-for-bit the global partition
	// restricted to their blocks. Activity is monotone under merges: a
	// merged component containing an active member stays active, so
	// restriction composes with the fixpoint proof of DESIGN.md §8.
	// This is what SQL predicate pushdown on blocking-key columns drives.
	Restrict func(id int) bool
	// Solver, when non-nil, replaces the local per-block solve: each
	// dirty block's ascending global member IDs are handed to it (from up
	// to Parallel goroutines) and it must return the block's solved state
	// in local coordinates — exactly what SolveBlock computes for the
	// block's records. This is the hook the distributed pipeline
	// (internal/cluster) plugs remote workers into; the guard, merge, and
	// reconcile steps are unchanged, so the fixpoint proof (DESIGN.md §8)
	// carries over verbatim. Incompatible with Problem.Exclude: the
	// predicate is a closure over global IDs and cannot be shipped.
	Solver func(ctx context.Context, members []int) (*BlockResult, error)
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return DefaultMaxRounds
	}
	return o.MaxRounds
}

// Result is the outcome of a blocked solve: the global partition
// (identical to core.Solve's, canonically ordered) plus the pipeline's
// instrumentation.
type Result struct {
	// Groups is the global partition: members ascending within each
	// group, groups ordered by smallest member — the same canonical form
	// core.Partition emits. Under Options.Restrict it holds only the
	// groups of active blocks (see Covered).
	Groups [][]int
	// Covered marks the records whose groups are present in Groups: all
	// of them for an unrestricted solve, exactly the members of active
	// blocks under Options.Restrict. A covered record's group membership
	// equals what the unrestricted solve would report; uncovered records
	// simply were not computed.
	Covered []bool
	// Partition sums the phase-2 counters over the final blocks.
	Partition core.PartitionStats

	// InitialBlocks counts the blocks after key seeding and the canopy
	// pass; Blocks and MaxBlock describe the final converged blocking.
	InitialBlocks int
	Blocks        int
	MaxBlock      int
	// BlocksSolved counts block solves across all rounds;
	// BoundaryResolves is the share of those triggered by guard merges
	// (rounds after the first).
	BlocksSolved     int
	BoundaryResolves int
	// BoundaryViolations counts records whose certificate radius reached
	// a foreign record; Uncertifiable counts records widened because
	// their block was too small to certify the size cut.
	BoundaryViolations int
	Uncertifiable      int
	// Rounds is the number of solve/guard/merge iterations run;
	// ForcedFull reports that the round budget ran out and the corpus
	// was solved as one block.
	Rounds     int
	ForcedFull bool
	// GuardProbes counts distance calls made outside the block solves:
	// pivot construction, canopy gating, and guard verification.
	GuardProbes int64
	// SolveTime is the wall-clock spent in the (parallel) block-solve
	// phases; MergeTime is everything else — seeding, guarding, merging,
	// and reconciliation.
	SolveTime time.Duration
	MergeTime time.Duration
}

// blockSolve is one block's solved state: the member list (ascending
// global IDs; local ID i is members[i]), the local NN relation, and the
// local partition.
type blockSolve struct {
	members []int
	rel     *core.NNRelation
	groups  [][]int
	pstats  core.PartitionStats
	dur     time.Duration
}

// BlockResult is one block's solved state in local coordinates (dense
// IDs 0..n-1 in the order the block's records were given): the phase-1
// relation the boundary guard certifies against, the canonical local
// partition, and the partitioning counters. It is what SolveBlock
// returns and what an Options.Solver must produce — the two are
// interchangeable by construction, which is the exactness contract of
// the distributed pipeline.
type BlockResult struct {
	Rel    *core.NNRelation
	Groups [][]int
	Stats  core.PartitionStats
	// Dur is the solve's wall clock (for a remote solve, as measured by
	// the solver — typically including the network round trip).
	Dur time.Duration
}

// SolveBlock runs the exact two-phase solve over one block's records:
// a block-local nnindex.Pruned (bit-for-bit the exact answers, so the
// fixpoint proof and the guard's certificates are untouched), sequential
// phase-1 lookups, and the canonical partition. Record order must be
// ascending in the global IDs the block was cut from — the remap is then
// monotone, so the (distance, ID) tie-break and the greedy anchor order
// inside the block coincide with the global ones restricted to it. This
// is the primitive a remote worker executes for the distributed solve;
// the local pipeline goes through the same code via solveOne.
func SolveBlock(records []string, metric distance.Metric, prob core.Problem, opts core.Phase1Options) (*BlockResult, error) {
	t0 := time.Now()
	opts.Order = core.OrderSequential
	idx, err := nnindex.NewPruned(records, metric, nnindex.PrunedConfig{})
	if err != nil {
		return nil, err
	}
	rel, err := core.ComputeNN(idx, prob.Cut, prob.P, opts)
	if err != nil {
		return nil, err
	}
	var ps core.PartitionStats
	groups, err := core.PartitionWithStats(rel, prob, &ps)
	if err != nil {
		return nil, err
	}
	return &BlockResult{Rel: rel, Groups: groups, Stats: ps, Dur: time.Since(t0)}, nil
}

// Solve runs the blocked pipeline over the records' string forms under
// the given metric and problem. The returned partition is bit-for-bit
// the one core.Solve produces on the same input.
func Solve(keys []string, metric distance.Metric, prob core.Problem, strat Strategy, opts Options) (*Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if opts.Solver != nil && prob.Exclude != nil {
		return nil, fmt.Errorf("blocked: Options.Solver is incompatible with Problem.Exclude")
	}
	res := &Result{Groups: [][]int{}, Covered: []bool{}}
	n := len(keys)
	if n == 0 {
		return res, nil
	}
	// Evaluate the restriction predicate once; component activity is then
	// a pure union over match bits each round.
	var match []bool
	if opts.Restrict != nil {
		match = make([]bool, n)
		for v := 0; v < n; v++ {
			match[v] = opts.Restrict(v)
		}
	}
	if len(strat.Keys) == 0 && len(strat.Windows) == 0 {
		strat = DefaultStrategy()
	}
	start := time.Now()

	// sizeWant is the component size below which a size cut cannot be
	// certified: phase 2 reads at most the first K−1 neighbor-list
	// entries, so a block needs K members (K−1 neighbors each) — capped
	// by the corpus itself.
	sizeWant := 0
	if prob.Cut.IsSize() {
		sizeWant = prob.Cut.MaxSize
		if sizeWant > n {
			sizeWant = n
		}
	}

	u := newUnionFind(n)
	seedBlocks(keys, strat, u)
	g := newGuard(keys, metric, opts.Exhaustive)
	canopyProbes := canopyMerge(keys, metric, strat, prob.Cut, u)
	g.preMerge(u, prob.Cut, prob.P, sizeWant)
	res.InitialBlocks = u.comps

	type cached struct {
		size  int
		solve *blockSolve
	}
	cache := make(map[int]*cached)
	var solveWall time.Duration

	for {
		res.Rounds++
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		forced := res.Rounds > opts.maxRounds()
		if forced {
			res.ForcedFull = true
			for v := 1; v < n; v++ {
				u.union(0, v)
			}
		}
		comps := u.components()

		// A block whose root and size survived the last round's merges is
		// unchanged: its members and — crucially for the guard — its
		// foreign record set are exactly what was already solved and
		// certified, so both the solve and the certificate are reused.
		blocks := make([]*blockSolve, len(comps))
		var dirty []int
		newCache := make(map[int]*cached, len(comps))
		for ci, members := range comps {
			if match != nil && !componentActive(members, match) {
				continue // restricted out: never solved, blocks[ci] stays nil
			}
			root := u.find(members[0])
			if c, ok := cache[root]; ok && c.size == len(members) {
				blocks[ci] = c.solve
				newCache[root] = c
				continue
			}
			dirty = append(dirty, ci)
		}

		t0 := time.Now()
		if err := solveBlocks(keys, metric, prob, comps, blocks, dirty, opts); err != nil {
			return nil, err
		}
		solveWall += time.Since(t0)
		res.BlocksSolved += len(dirty)
		if res.Rounds > 1 && !forced {
			res.BoundaryResolves += len(dirty)
		}
		for _, ci := range dirty {
			newCache[u.find(comps[ci][0])] = &cached{size: len(comps[ci]), solve: blocks[ci]}
			if opts.OnBlockSolved != nil {
				opts.OnBlockSolved(len(comps[ci]), blocks[ci].dur)
			}
		}
		cache = newCache

		converged := true
		if !forced && len(comps) > 1 {
			// Guard only the freshly solved blocks: unchanged blocks keep
			// their pass from an earlier round. Violation merges are
			// collected first and applied afterwards, then uncertifiable
			// records widen, all in ascending record order — the merge
			// sequence is deterministic regardless of Parallel.
			type merge struct{ v, w int }
			var merges []merge
			var shorts []int
			for _, ci := range dirty {
				bs := blocks[ci]
				reaches := blockReaches(bs.rel, prob.Cut, prob.P, bs.members, sizeWant)
				for i, v := range bs.members {
					r := reaches[i]
					if r < 0 {
						shorts = append(shorts, v)
						continue
					}
					if ws := g.foreignWithin(u, v, r); len(ws) > 0 {
						res.BoundaryViolations++
						for _, w := range ws {
							merges = append(merges, merge{v, w})
						}
					}
				}
			}
			sort.Slice(merges, func(i, j int) bool {
				if merges[i].v != merges[j].v {
					return merges[i].v < merges[j].v
				}
				return merges[i].w < merges[j].w
			})
			for _, m := range merges {
				if u.union(m.v, m.w) {
					converged = false
				}
			}
			sort.Ints(shorts)
			for _, v := range shorts {
				if u.sizeOf(v) >= sizeWant {
					continue // an earlier merge already grew this block
				}
				res.Uncertifiable++
				g.widen(u, v, sizeWant)
				converged = false
			}
		}
		if converged {
			res.Blocks = len(comps)
			res.Covered = make([]bool, n)
			for _, b := range blocks {
				if b == nil {
					continue // restricted out
				}
				for _, v := range b.members {
					res.Covered[v] = true
				}
				if len(b.members) > res.MaxBlock {
					res.MaxBlock = len(b.members)
				}
				res.Partition.Groups += b.pstats.Groups
				res.Partition.Duplicates += b.pstats.Duplicates
				res.Partition.Candidates += b.pstats.Candidates
				res.Partition.RejectedAssigned += b.pstats.RejectedAssigned
				res.Partition.RejectedCompact += b.pstats.RejectedCompact
				res.Partition.RejectedSN += b.pstats.RejectedSN
				res.Partition.RejectedExcluded += b.pstats.RejectedExcluded
				res.Partition.Splits += b.pstats.Splits
			}
			res.Groups = reconcile(blocks)
			break
		}
	}

	res.GuardProbes = canopyProbes + g.probes
	res.SolveTime = solveWall
	res.MergeTime = time.Since(start) - solveWall
	return res, nil
}

// solveBlocks runs the dirty blocks through the exact solver on a
// bounded worker pool, filling blocks[ci] for each dirty ci.
func solveBlocks(keys []string, metric distance.Metric, prob core.Problem, comps [][]int, blocks []*blockSolve, dirty []int, opts Options) error {
	if len(dirty) == 0 {
		return nil
	}
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(dirty) {
		workers = len(dirty)
	}
	var (
		next     = int64(-1)
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(dirty) {
					return
				}
				ci := dirty[i]
				var bs *blockSolve
				var err error
				if opts.Solver != nil {
					bs, err = solveRemote(prob, comps[ci], opts)
				} else {
					bs, err = solveOne(keys, metric, prob, comps[ci], opts)
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				blocks[ci] = bs
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// solveOne solves a single block: remap its members (ascending global
// IDs) to dense local IDs, run both phases through SolveBlock,
// and keep the local relation for the guard. The remap is monotone, so
// the (distance, ID) tie-break and the greedy anchor order inside the
// block coincide with the global ones restricted to it.
func solveOne(keys []string, metric distance.Metric, prob core.Problem, members []int, opts Options) (*blockSolve, error) {
	local := make([]string, len(members))
	for i, id := range members {
		local[i] = keys[id]
	}
	lprob := prob
	if ex := prob.Exclude; ex != nil {
		lprob.Exclude = func(a, b int) bool { return ex(members[a], members[b]) }
	}
	r, err := SolveBlock(local, metric, lprob, core.Phase1Options{Ctx: opts.Ctx, Stats: opts.Stats})
	if err != nil {
		return nil, err
	}
	return &blockSolve{members: members, rel: r.Rel, groups: r.Groups, pstats: r.Stats, dur: r.Dur}, nil
}

// solveRemote delegates one block to Options.Solver, wrapping its local-
// coordinate result back into the pipeline's bookkeeping.
func solveRemote(prob core.Problem, members []int, opts Options) (*blockSolve, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := opts.Solver(ctx, members)
	if err != nil {
		return nil, err
	}
	if n := len(r.Rel.Rows); n != len(members) {
		return nil, fmt.Errorf("blocked: solver returned %d rows for a %d-member block", n, len(members))
	}
	if r.Rel.Cut != prob.Cut {
		return nil, fmt.Errorf("blocked: solver relation computed for %v, problem asks %v", r.Rel.Cut, prob.Cut)
	}
	return &blockSolve{members: members, rel: r.Rel, groups: r.Groups, pstats: r.Stats, dur: r.Dur}, nil
}

// blockReaches computes each block member's certificate radius — the
// largest distance at which a foreign record could still have changed
// the member's phase-1 row as phase 2 reads it — or -1 when the block is
// too small to certify a size cut (the member must be widened instead).
//
// Size cut DE_S(K): phase 2 reads at most the first K−1 neighbor-list
// entries (candidate groups top out at j = K, reading list[:j−1]), so
// the radius must cover the (K−1)-th local neighbor; a block with fewer
// than K members cannot supply it. Diameter cuts (alone or combined):
// the θ-range list is exactly reproducible iff no foreign record lies
// within θ. Both cases additionally cover the growth sphere
// (core.GrowthRadius, phase 1's own radius) so ng(v) is exact too.
func blockReaches(rel *core.NNRelation, cut core.Cut, p float64, members []int, sizeWant int) []float64 {
	if p == 0 {
		p = core.DefaultP
	}
	reaches := make([]float64, len(members))
	if cut.IsSize() {
		l := sizeWant - 1
		if l < 1 {
			return reaches // single-record corpus: nothing foreign exists
		}
		if len(members) < sizeWant {
			for i := range reaches {
				reaches[i] = -1
			}
			return reaches
		}
		for i := range members {
			list := rel.Rows[i].NNList
			r := core.GrowthRadius(list[0].Dist, p)
			if d := list[l-1].Dist; d > r {
				r = d
			}
			reaches[i] = r
		}
		return reaches
	}
	for i := range members {
		r := cut.Diameter
		if list := rel.Rows[i].NNList; len(list) > 0 {
			if gr := core.GrowthRadius(list[0].Dist, p); gr > r {
				r = gr
			}
		}
		reaches[i] = r
	}
	return reaches
}

// componentActive reports whether a component contains a record matched
// by the restriction predicate. Merging can only add members, so an
// active component stays active in every later round.
func componentActive(members []int, match []bool) bool {
	for _, v := range members {
		if match[v] {
			return true
		}
	}
	return false
}

// reconcile concatenates the per-block partitions into the global
// canonical form. Local groups are already canonically ordered and the
// member remap is monotone, so each remapped group is ascending; only
// the group order needs fixing.
func reconcile(blocks []*blockSolve) [][]int {
	groups := make([][]int, 0, len(blocks))
	for _, b := range blocks {
		if b == nil {
			continue // restricted out of the solve
		}
		for _, lg := range b.groups {
			gg := make([]int, len(lg))
			for i, lv := range lg {
				gg[i] = b.members[lv]
			}
			groups = append(groups, gg)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
