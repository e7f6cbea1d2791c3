package fuzzydup

import (
	"context"
	"fmt"
	"time"

	"fuzzydup/internal/baseline"
	"fuzzydup/internal/blocked"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/obs"
	"fuzzydup/internal/strutil"
)

// Record is one tuple of the relation being deduplicated: its attribute
// values in order. Fields are joined (space-separated, empties skipped)
// into the string the distance functions compare.
type Record []string

// Metric selects a built-in distance function.
type Metric string

// Built-in metrics. All are symmetric with range [0, 1].
const (
	// MetricEdit is normalized edit distance ("ed" in the paper).
	MetricEdit Metric = "ed"
	// MetricFMS is the symmetric fuzzy match similarity, combining
	// per-token edit distance with IDF weights computed over the relation.
	MetricFMS Metric = "fms"
	// MetricCosine is token cosine distance with IDF weights.
	MetricCosine Metric = "cosine"
	// MetricJaccard is q-gram Jaccard distance.
	MetricJaccard Metric = "jaccard"
	// MetricJaro is Jaro distance.
	MetricJaro Metric = "jaro"
	// MetricJaroWinkler is Jaro-Winkler distance (prefix-boosted Jaro).
	MetricJaroWinkler Metric = "jaro-winkler"
	// MetricMongeElkan is the Monge-Elkan hybrid (token-level best match
	// under Jaro-Winkler, averaged).
	MetricMongeElkan Metric = "monge-elkan"
	// MetricSoftTFIDF is soft TF-IDF (IDF-weighted cosine with fuzzy token
	// matching), with IDF weights computed over the relation.
	MetricSoftTFIDF Metric = "soft-tfidf"
	// MetricSoundex is token-wise Soundex distance — coarse, phonetic.
	MetricSoundex Metric = "soundex"
	// MetricDamerau is normalized optimal-string-alignment distance
	// (Levenshtein plus adjacent transpositions).
	MetricDamerau Metric = "damerau"
)

// Agg selects the sparse-neighborhood aggregation function.
type Agg string

// Aggregation functions (paper, Figure 7).
const (
	// AggMax requires every member's neighborhood growth below c.
	AggMax Agg = "max"
	// AggAvg requires the mean neighborhood growth below c.
	AggAvg Agg = "avg"
	// AggMax2 requires the second-largest growth below c.
	AggMax2 Agg = "max2"
)

// Index selects the nearest-neighbor index backing phase 1.
type Index string

// Available indexes: the exact one, and the paper's probabilistic one.
const (
	// IndexExact answers every query exactly, for any metric. The default.
	// For the edit-family metrics ("ed", "damerau") it is a certified
	// scan: 256-bit q-gram signatures, a multi-index Hamming certificate
	// and per-pair lower bounds skip most metric calls while every answer
	// stays bit-for-bit that of a full scan. For any other metric it
	// scans the whole relation per query, O(n) per lookup.
	IndexExact Index = "exact"
	// IndexQGram is the probabilistic disk-backed q-gram inverted index
	// (the paper's setting); recommended beyond ~10,000 records.
	IndexQGram Index = "qgram"
	// IndexPruned is the former name of the certified scan IndexExact now
	// always uses; it selects IndexExact.
	//
	// Deprecated: use IndexExact.
	IndexPruned Index = "pruned"
)

// Options configures a Deduper. The zero value selects edit distance, the
// exact index, p = 2, and the max aggregation.
type Options struct {
	// Metric selects a built-in distance function (default MetricEdit).
	// Ignored when CustomMetric is set.
	Metric Metric
	// CustomMetric plugs in a bespoke symmetric distance in [0, 1]. The
	// CS/SN criteria are orthogonal to the distance choice, so any domain
	// distance works.
	CustomMetric func(a, b string) float64
	// Index selects the nearest-neighbor index (default IndexExact).
	Index Index
	// P is the neighborhood growth-sphere factor (default 2, the paper's
	// setting).
	P float64
	// Agg is the SN aggregation function (default AggMax).
	Agg Agg
	// MinimalCompact applies the Section 4.4.2 post-processing, splitting
	// groups that are mergers of disjoint smaller compact sets.
	MinimalCompact bool
	// Exclude is a constraining predicate (Section 4.4.1): record pairs
	// for which it returns true are never grouped together.
	Exclude func(a, b int) bool
	// UseSQL runs the partitioning phase as SQL against the embedded
	// relational engine, reproducing the paper's architecture. The result
	// is identical to the in-memory path; this exists for inspection and
	// for exercising the full stack.
	UseSQL bool
	// Parallel, when > 1, fans phase-1 lookups (or, under Blocking, block
	// solves) across that many goroutines. Only effective with the exact
	// index (the default); the output is identical to a serial run.
	Parallel int
	// Tracer, when non-nil, receives hierarchical spans for every solve:
	// a "dedup.solve" root with "phase1" and "phase2" children carrying
	// wall-clock durations and work counters (lookups, index probes,
	// distance calls, rejection reasons). The same numbers are available
	// without a tracer via Report / LastReport. On the blocked path the
	// root instead carries one "blocked" child with the pipeline counters.
	Tracer *obs.Tracer
	// Blocking, when non-nil, routes every solve through the sharded
	// blocked pipeline: the corpus is partitioned into candidate blocks,
	// blocks are solved concurrently, and a boundary guard merges and
	// re-solves any block whose certificate radii reach a foreign record —
	// so the partition returned is bit-for-bit the monolithic one.
	// Requires the exact index and is incompatible with UseSQL. Note that
	// the blocked path does not use the phase-1 cache: each solve
	// recomputes its per-block neighbor lists.
	Blocking *BlockingOptions
}

// BlockingOptions carries the hooks of the blocked solve selected by
// Options.Blocking. The solve itself is fixed: blocked.DefaultStrategy
// (blocks seeded from a 4-character normalized prefix and the first
// token's Soundex code, a window-8 sorted-neighborhood canopy pass), the
// exhaustive boundary guard, and block solves run at Options.Parallel.
//
// In the blocked mode RunReport.Phase1 is the wall-clock of the
// (parallel) block solves and Phase2 is everything else — seeding,
// guarding, merging, and reconciliation.
type BlockingOptions struct {
	// OnBlockSolved, when non-nil, is called once per block solve with the
	// block size and solve duration — the hook dedupd feeds its per-block
	// duration histogram from. Calls are sequential.
	OnBlockSolved func(size int, d time.Duration)
	// Restrict, when non-nil, limits the solve to the blocks containing
	// at least one record with Restrict(id) true (a restricted blocked
	// solve — see blocked.Options.Restrict). The returned partition then
	// holds only those blocks' groups, but each of them is bit-for-bit
	// the group the unrestricted solve would produce: the boundary guard
	// still certifies active blocks against the whole corpus. Use
	// Deduper.LastCovered to learn which records the partition covers.
	// This is the hook SQL predicate pushdown on blocking-key columns
	// rides on.
	Restrict func(id int) bool
}

// RunReport summarizes the work of a Deduper's solves: phase timings,
// comparison counts, partition statistics, and phase-1 cache behaviour.
// Deduper.Report returns the accumulation across all solves so far;
// Deduper.LastReport the most recent solve alone.
//
// DistanceCalls follows CacheStats semantics: a solve served from the
// phase-1 cache computes no new distances, so a K/θ/c sweep's distance
// count grows only on the CacheComputes points, not the CacheHits ones.
// It counts every distance the solve measured: calls of the metric plus
// the exact index's bounded-kernel verifications (Phase1Candidates),
// which bypass the metric.
type RunReport struct {
	// Solves is the number of completed solve calls covered.
	Solves int `json:"solves"`
	// Phase1 and Phase2 are the wall-clock durations of the
	// nearest-neighbor and partitioning phases (JSON: nanoseconds).
	Phase1 time.Duration `json:"phase1_ns"`
	Phase2 time.Duration `json:"phase2_ns"`
	// Lookups is the number of phase-1 tuple lookups performed;
	// IndexProbes the number of index probe calls they issued;
	// DistanceCalls the number of distances the solve measured.
	Lookups       int64 `json:"lookups"`
	IndexProbes   int64 `json:"index_probes"`
	DistanceCalls int64 `json:"distance_calls"`
	// Groups is the partition size (singletons included),
	// DuplicateGroups the groups of size >= 2, Splits the groups
	// decomposed by the minimal-compact post-processing.
	Groups          int `json:"groups"`
	DuplicateGroups int `json:"duplicate_groups"`
	Splits          int `json:"splits"`
	// RejectedCompact / RejectedSN / RejectedExcluded count candidate
	// groups rejected by the compact-set check, the sparse-neighborhood
	// check, and the constraining predicate.
	RejectedCompact  int `json:"rejected_compact"`
	RejectedSN       int `json:"rejected_sn"`
	RejectedExcluded int `json:"rejected_excluded"`
	// CacheComputes / CacheHits are the phase-1 cache outcomes, the same
	// counters CacheStats reports.
	CacheComputes int `json:"phase1_cache_computes"`
	CacheHits     int `json:"phase1_cache_hits"`
	// BlocksSolved / BoundaryResolves instrument the blocked path
	// (Options.Blocking): block solves across all guard rounds, and the
	// share of them triggered by boundary merges. Both stay zero on the
	// monolithic path.
	BlocksSolved     int `json:"blocks_solved,omitempty"`
	BoundaryResolves int `json:"boundary_resolves,omitempty"`
	// Phase1Pruned / Phase1Candidates / Phase1Fallbacks instrument the
	// exact index's certified scan (monolithic, blocked or distributed):
	// records excluded by a certified bound without a distance
	// computation, records verified by the bounded kernel, and queries
	// that fell back wholesale to metric calls over every record (a
	// metric outside the edit family, a key shorter than a q-gram, or a
	// top-K spanning the relation). All zero for IndexQGram.
	Phase1Pruned     int64 `json:"phase1_pruned,omitempty"`
	Phase1Candidates int64 `json:"phase1_candidates,omitempty"`
	Phase1Fallbacks  int64 `json:"phase1_fallbacks,omitempty"`
}

// add accumulates a per-solve delta into a cumulative report.
func (r *RunReport) add(d RunReport) {
	r.Solves += d.Solves
	r.Phase1 += d.Phase1
	r.Phase2 += d.Phase2
	r.Lookups += d.Lookups
	r.IndexProbes += d.IndexProbes
	r.DistanceCalls += d.DistanceCalls
	r.Groups += d.Groups
	r.DuplicateGroups += d.DuplicateGroups
	r.Splits += d.Splits
	r.RejectedCompact += d.RejectedCompact
	r.RejectedSN += d.RejectedSN
	r.RejectedExcluded += d.RejectedExcluded
	r.CacheComputes += d.CacheComputes
	r.CacheHits += d.CacheHits
	r.BlocksSolved += d.BlocksSolved
	r.BoundaryResolves += d.BoundaryResolves
	r.Phase1Pruned += d.Phase1Pruned
	r.Phase1Candidates += d.Phase1Candidates
	r.Phase1Fallbacks += d.Phase1Fallbacks
}

// String renders the report in the two-line per-phase form the dedup CLI
// prints under -stats.
func (r RunReport) String() string {
	s := fmt.Sprintf(
		"phase1 %v (lookups %d, index probes %d, distance calls %d, cache %d computes / %d hits)\n"+
			"phase2 %v (groups %d, duplicates %d, splits %d; rejected %d compact / %d sn / %d excluded)",
		r.Phase1.Round(time.Microsecond), r.Lookups, r.IndexProbes, r.DistanceCalls,
		r.CacheComputes, r.CacheHits,
		r.Phase2.Round(time.Microsecond), r.Groups, r.DuplicateGroups, r.Splits,
		r.RejectedCompact, r.RejectedSN, r.RejectedExcluded)
	if r.BlocksSolved > 0 {
		s += fmt.Sprintf("\nblocked (block solves %d, boundary re-solves %d)",
			r.BlocksSolved, r.BoundaryResolves)
	}
	if r.Phase1Pruned > 0 || r.Phase1Candidates > 0 || r.Phase1Fallbacks > 0 {
		s += fmt.Sprintf("\nprefilter (pruned %d, verified %d, fallbacks %d)",
			r.Phase1Pruned, r.Phase1Candidates, r.Phase1Fallbacks)
	}
	return s
}

// Deduper runs fuzzy duplicate elimination over a fixed set of records.
// It is not safe for concurrent use.
//
// Phase-1 results are cached across calls: a sweep over K or θ reuses the
// widest neighbor lists computed so far (top-K lists are prefixes of
// top-K' lists for K <= K', and θ-range lists truncate the same way), so
// only the first call at a new maximum pays for nearest-neighbor
// computation.
type Deduper struct {
	records []Record
	keys    []string
	metric  distance.Metric
	counter *distance.Counting // same metric, counted; indexes query through it
	index   nnindex.Index
	agg     core.Agg // resolved Options.Agg
	opts    Options

	cacheS *core.NNRelation // widest size-cut relation computed so far
	cacheD *core.NNRelation // widest diameter-cut relation computed so far

	cacheHits     int // phase-1 requests served from a cached relation
	cacheComputes int // phase-1 requests that ran ComputeNN

	report      RunReport // accumulated across solves
	lastReport  RunReport // most recent solve's delta
	lastCovered []bool    // restricted-solve coverage; nil = full coverage
}

// CacheStats reports how often the phase-1 cache answered an NN-relation
// request without recomputation. Parameter sweeps over K, θ, or c reuse
// the widest relation computed so far, so hits should dominate after the
// first solve of each cut family.
func (d *Deduper) CacheStats() (computes, hits int) {
	return d.cacheComputes, d.cacheHits
}

// Report returns the run report accumulated across every solve on this
// Deduper.
func (d *Deduper) Report() RunReport { return d.report }

// LastReport returns the most recent solve's report alone (all counters
// are that solve's deltas), which is what per-sweep-point monitoring
// wants.
func (d *Deduper) LastReport() RunReport { return d.lastReport }

// LastCovered reports which records the most recent solve's partition
// covers. It is nil after an unrestricted solve (every record is
// covered); after a solve with BlockingOptions.Restrict set it marks
// exactly the records whose groups appear in the returned partition —
// each such group identical to the unrestricted solve's.
func (d *Deduper) LastCovered() []bool { return d.lastCovered }

// New builds a Deduper over the records. IDF-weighted metrics compute
// their weights from these records.
func New(records []Record, opts Options) (*Deduper, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("fuzzydup: no records")
	}
	keys := make([]string, len(records))
	for i, r := range records {
		keys[i] = strutil.JoinFields(r)
	}
	metric, agg, err := opts.resolve(keys)
	if err != nil {
		return nil, err
	}
	// Every metric call — index probes, diagnostics, representatives —
	// goes through a counting wrapper so reports can state how many
	// distance computations the work cost.
	counter := distance.NewCounting(metric)
	kind := opts.index()
	if opts.Blocking != nil {
		// The blocked pipeline builds its own per-block exact indexes and
		// runs partitioning in memory; neither the probabilistic global
		// index nor the SQL runner composes with it.
		if opts.UseSQL {
			return nil, fmt.Errorf("fuzzydup: Blocking is incompatible with UseSQL")
		}
		if kind != IndexExact {
			return nil, fmt.Errorf("fuzzydup: Blocking requires the exact index, not %q", kind)
		}
	}
	var index nnindex.Index
	switch kind {
	case IndexExact:
		px, err := nnindex.NewPruned(keys, counter, nnindex.PrunedConfig{})
		if err != nil {
			return nil, fmt.Errorf("fuzzydup: building index: %w", err)
		}
		index = px
	case IndexQGram:
		qg, err := nnindex.NewQGram(keys, counter, nnindex.QGramConfig{})
		if err != nil {
			return nil, fmt.Errorf("fuzzydup: building index: %w", err)
		}
		index = qg
	default:
		return nil, fmt.Errorf("fuzzydup: unknown index %q", kind)
	}
	return &Deduper{records: records, keys: keys, metric: counter, counter: counter, index: index, agg: agg, opts: opts}, nil
}

// index resolves the options' index name: unset and the deprecated
// IndexPruned both select IndexExact.
func (o Options) index() Index {
	if o.Index == "" || o.Index == IndexPruned {
		return IndexExact
	}
	return o.Index
}

// resolve turns the options' metric and aggregation names into their
// implementations; a corpus-dependent metric takes its weights from keys.
func (o Options) resolve(keys []string) (distance.Metric, core.Agg, error) {
	agg, err := core.ParseAgg(string(o.Agg))
	if err != nil {
		return nil, 0, fmt.Errorf("fuzzydup: unknown aggregation %q", o.Agg)
	}
	if o.CustomMetric != nil {
		return distance.Func{MetricName: "custom", F: o.CustomMetric}, agg, nil
	}
	metric, err := distance.ByName(string(o.Metric), keys)
	if err != nil {
		return nil, 0, fmt.Errorf("fuzzydup: unknown metric %q", o.Metric)
	}
	return metric, agg, nil
}

// Len returns the number of records.
func (d *Deduper) Len() int { return len(d.records) }

// Distance returns the configured metric's distance between two records
// by index.
func (d *Deduper) Distance(a, b int) float64 {
	return d.metric.Distance(d.keys[a], d.keys[b])
}

func (d *Deduper) problem(cut core.Cut, c float64) core.Problem {
	return core.Problem{
		Cut:            cut,
		Agg:            d.agg,
		C:              c,
		P:              d.opts.P,
		MinimalCompact: d.opts.MinimalCompact,
		Exclude:        d.opts.Exclude,
	}
}

// nnRelation returns the phase-1 relation for the cut, reusing and
// widening the per-family cache as needed. A cancelled ctx aborts an
// in-flight computation without poisoning the cache. When stats is
// non-nil it accumulates the lookup work of a cache miss (a hit does no
// phase-1 work and adds nothing).
func (d *Deduper) nnRelation(ctx context.Context, cut core.Cut, stats *core.Phase1Stats) (*core.NNRelation, error) {
	if cut.IsSize() {
		if d.cacheS == nil || d.cacheS.Cut.MaxSize < cut.MaxSize {
			rel, err := core.ComputeNN(d.index, core.Cut{MaxSize: cut.MaxSize}, d.growthP(), d.phase1Opts(ctx, stats))
			if err != nil {
				return nil, err
			}
			d.cacheS = rel
			d.cacheComputes++
		} else {
			d.cacheHits++
		}
		return d.cacheS.TruncateSize(cut.MaxSize), nil
	}
	if d.cacheD == nil || d.cacheD.Cut.Diameter < cut.Diameter {
		rel, err := core.ComputeNN(d.index, core.Cut{Diameter: cut.Diameter}, d.growthP(), d.phase1Opts(ctx, stats))
		if err != nil {
			return nil, err
		}
		d.cacheD = rel
		d.cacheComputes++
	} else {
		d.cacheHits++
	}
	rel := d.cacheD.TruncateDiameter(cut.Diameter)
	rel.Cut = cut // carry the size bound of a combined cut into phase 2
	return rel, nil
}

func (d *Deduper) solve(ctx context.Context, prob core.Problem) (Groups, error) {
	if d.opts.Blocking != nil {
		return d.solveBlocked(ctx, prob)
	}
	span := d.opts.Tracer.Start("dedup.solve")
	defer span.End()

	var delta RunReport
	dist0 := d.counter.Calls()
	computes0, hits0 := d.cacheComputes, d.cacheHits

	var p1 core.Phase1Stats
	p1Span := span.Child("phase1")
	t0 := time.Now()
	rel, err := d.nnRelation(ctx, prob.Cut, &p1)
	delta.Phase1 = time.Since(t0)
	delta.Lookups = p1.Lookups.Load()
	delta.IndexProbes = p1.Probes.Load()
	delta.Phase1Pruned = p1.Pruned.Load()
	delta.Phase1Candidates = p1.Candidates.Load()
	delta.Phase1Fallbacks = p1.Fallbacks.Load()
	delta.CacheComputes = d.cacheComputes - computes0
	delta.CacheHits = d.cacheHits - hits0
	p1Span.Add("lookups", delta.Lookups)
	p1Span.Add("index_probes", delta.IndexProbes)
	p1Span.Add("cache_hits", int64(delta.CacheHits))
	p1Span.End()
	if err != nil {
		return nil, err
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}

	var pstats core.PartitionStats
	p2Span := span.Child("phase2")
	t1 := time.Now()
	var groups Groups
	if d.opts.UseSQL {
		r := core.NewSQLRunner()
		if err := r.LoadNNRelation(rel); err != nil {
			return nil, err
		}
		if err := r.BuildCSPairs(); err != nil {
			return nil, err
		}
		groups, err = r.Partition(prob)
		if err != nil {
			return nil, err
		}
		// The SQL runner does not expose candidate-level counters; report
		// the partition shape, which it does produce.
		pstats.Groups = len(groups)
		for _, g := range groups {
			if len(g) >= 2 {
				pstats.Duplicates++
			}
		}
	} else {
		groups, err = core.PartitionWithStats(rel, prob, &pstats)
		if err != nil {
			return nil, err
		}
	}
	delta.Phase2 = time.Since(t1)
	delta.Groups = pstats.Groups
	delta.DuplicateGroups = pstats.Duplicates
	delta.Splits = pstats.Splits
	delta.RejectedCompact = pstats.RejectedCompact
	delta.RejectedSN = pstats.RejectedSN
	delta.RejectedExcluded = pstats.RejectedExcluded
	delta.DistanceCalls = d.counter.Calls() - dist0 + delta.Phase1Candidates
	delta.Solves = 1
	p2Span.Add("groups", int64(pstats.Groups))
	p2Span.Add("duplicate_groups", int64(pstats.Duplicates))
	p2Span.Add("splits", int64(pstats.Splits))
	p2Span.End()
	span.Add("distance_calls", delta.DistanceCalls)

	d.lastReport = delta
	d.report.add(delta)
	d.lastCovered = nil // monolithic solves always cover every record
	return groups, nil
}

// solveBlocked is the Options.Blocking solve path: it hands the whole
// problem to the blocked pipeline and maps its Result into the same
// report and span structure the monolithic path produces. Phase1 is the
// block-solve wall clock, Phase2 the seeding/guard/merge remainder.
func (d *Deduper) solveBlocked(ctx context.Context, prob core.Problem) (Groups, error) {
	span := d.opts.Tracer.Start("dedup.solve")
	defer span.End()

	var delta RunReport
	dist0 := d.counter.Calls()

	bo := d.opts.Blocking
	var p1 core.Phase1Stats
	bSpan := span.Child("blocked")
	res, err := blocked.Solve(d.keys, d.metric, prob, blocked.DefaultStrategy(), blocked.Options{
		Parallel:      d.opts.Parallel,
		Exhaustive:    true,
		Ctx:           ctx,
		Stats:         &p1,
		OnBlockSolved: bo.OnBlockSolved,
		Restrict:      bo.Restrict,
	})
	if err != nil {
		bSpan.End()
		return nil, err
	}
	bSpan.Add("blocks", int64(res.Blocks))
	bSpan.Add("blocks_solved", int64(res.BlocksSolved))
	bSpan.Add("boundary_resolves", int64(res.BoundaryResolves))
	bSpan.Add("guard_probes", res.GuardProbes)
	if res.ForcedFull {
		bSpan.Add("forced_full", 1)
	}
	bSpan.End()

	delta.Phase1 = res.SolveTime
	delta.Phase2 = res.MergeTime
	delta.Lookups = p1.Lookups.Load()
	delta.IndexProbes = p1.Probes.Load()
	delta.Phase1Pruned = p1.Pruned.Load()
	delta.Phase1Candidates = p1.Candidates.Load()
	delta.Phase1Fallbacks = p1.Fallbacks.Load()
	delta.Groups = res.Partition.Groups
	delta.DuplicateGroups = res.Partition.Duplicates
	delta.Splits = res.Partition.Splits
	delta.RejectedCompact = res.Partition.RejectedCompact
	delta.RejectedSN = res.Partition.RejectedSN
	delta.RejectedExcluded = res.Partition.RejectedExcluded
	delta.BlocksSolved = res.BlocksSolved
	delta.BoundaryResolves = res.BoundaryResolves
	delta.DistanceCalls = d.counter.Calls() - dist0 + delta.Phase1Candidates
	delta.Solves = 1
	span.Add("distance_calls", delta.DistanceCalls)

	d.lastReport = delta
	d.report.add(delta)
	if bo.Restrict != nil {
		d.lastCovered = res.Covered
	} else {
		d.lastCovered = nil
	}
	return Groups(res.Groups), nil
}

// Groups is a partition of the record indices: every record appears in
// exactly one group; groups of size >= 2 are the detected duplicate sets.
type Groups [][]int

// Duplicates returns only the non-trivial groups (size >= 2).
func (g Groups) Duplicates() [][]int {
	var out [][]int
	for _, grp := range g {
		if len(grp) >= 2 {
			out = append(out, grp)
		}
	}
	return out
}

// Pairs returns every detected duplicate pair (a < b).
func (g Groups) Pairs() [][2]int {
	var out [][2]int
	for _, grp := range g {
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				out = append(out, [2]int{grp[i], grp[j]})
			}
		}
	}
	return out
}

// GroupsBySize solves the DE_S(K) problem: partition the records into the
// minimum number of compact, sparse-neighborhood groups of size at most
// maxSize, with SN threshold c (> 1).
func (d *Deduper) GroupsBySize(maxSize int, c float64) (Groups, error) {
	return d.GroupsBySizeCtx(context.Background(), maxSize, c)
}

// GroupsBySizeCtx is GroupsBySize with cancellation: ctx is polled between
// phase-1 index lookups (the dominant cost), and a cancelled ctx aborts
// the run with ctx.Err() without corrupting the phase-1 cache.
func (d *Deduper) GroupsBySizeCtx(ctx context.Context, maxSize int, c float64) (Groups, error) {
	return d.solve(ctx, d.problem(core.Cut{MaxSize: maxSize}, c))
}

// GroupsByDiameter solves the DE_D(θ) problem: partition the records into
// the minimum number of compact, sparse-neighborhood groups whose maximum
// pairwise distance stays below theta, with SN threshold c (> 1).
func (d *Deduper) GroupsByDiameter(theta, c float64) (Groups, error) {
	return d.GroupsByDiameterCtx(context.Background(), theta, c)
}

// GroupsByDiameterCtx is GroupsByDiameter with cancellation; see
// GroupsBySizeCtx.
func (d *Deduper) GroupsByDiameterCtx(ctx context.Context, theta, c float64) (Groups, error) {
	return d.solve(ctx, d.problem(core.Cut{Diameter: theta}, c))
}

// GroupsBySizeAndDiameter applies both cut specifications together
// (Section 3's combined form): groups of at most maxSize records whose
// maximum pairwise distance stays below theta, with SN threshold c (> 1).
func (d *Deduper) GroupsBySizeAndDiameter(maxSize int, theta, c float64) (Groups, error) {
	return d.GroupsBySizeAndDiameterCtx(context.Background(), maxSize, theta, c)
}

// GroupsBySizeAndDiameterCtx is GroupsBySizeAndDiameter with cancellation;
// see GroupsBySizeCtx. A zero maxSize or theta leaves that bound unset, so
// theta 0 solves DE_S(maxSize) and maxSize 0 solves DE_D(theta).
func (d *Deduper) GroupsBySizeAndDiameterCtx(ctx context.Context, maxSize int, theta, c float64) (Groups, error) {
	return d.solve(ctx, d.problem(core.Cut{MaxSize: maxSize, Diameter: theta}, c))
}

// SingleLinkage runs the global-threshold baseline the paper compares
// against: connected components of the threshold graph at theta.
func (d *Deduper) SingleLinkage(theta float64) (Groups, error) {
	rel, err := core.ComputeNN(d.index, core.Cut{Diameter: theta}, core.DefaultP, d.phase1Opts(context.Background(), nil))
	if err != nil {
		return nil, err
	}
	lists := make([][]nnindex.Neighbor, len(rel.Rows))
	for i, row := range rel.Rows {
		lists[i] = row.NNList
	}
	return baseline.SingleLinkage(d.Len(), lists, theta), nil
}

// Explanation describes how the framework's criteria see a candidate
// pair: their distance, whether they are mutual nearest neighbors (the
// entry condition for any duplicate group), and their neighborhood
// growths (a pair passes SN(max, c) iff MaxNG < c). The structural
// criteria make every grouping decision inspectable — no opaque score.
type Explanation = core.PairExplanation

// Explain evaluates the pair diagnostics for records a and b, considering
// each record's first k nearest neighbors.
func (d *Deduper) Explain(a, b, k int) Explanation {
	e := core.ExplainPair(d.index, a, b, k, d.opts.P)
	// The public Deduper always knows the true distance.
	e.Distance = d.Distance(a, b)
	return e
}

// EstimateC derives the sparse-neighborhood threshold c from an estimate
// of the fraction of records that are duplicates (paper, Section 4.3):
// the least neighborhood-growth value at which the cumulative growth
// distribution spikes near the dupFraction-percentile.
func (d *Deduper) EstimateC(dupFraction float64) (float64, error) {
	rel, err := d.nnRelation(context.Background(), core.Cut{MaxSize: 5}, nil)
	if err != nil {
		return 0, err
	}
	return core.EstimateSNThreshold(rel.NGValues(), dupFraction, core.EstimateOptions{})
}

// NeighborhoodGrowths returns ng(v) for every record — the diagnostic the
// Section 4.3 estimator and the SN criterion are built on.
func (d *Deduper) NeighborhoodGrowths() ([]int, error) {
	rel, err := d.nnRelation(context.Background(), core.Cut{MaxSize: 5}, nil)
	if err != nil {
		return nil, err
	}
	return rel.NGValues(), nil
}

func (d *Deduper) growthP() float64 {
	if d.opts.P == 0 {
		return core.DefaultP
	}
	return d.opts.P
}

// phase1Opts derives the phase-1 options from the Deduper's configuration.
func (d *Deduper) phase1Opts(ctx context.Context, stats *core.Phase1Stats) core.Phase1Options {
	return core.Phase1Options{Parallel: d.opts.Parallel, Ctx: ctx, Stats: stats}
}
