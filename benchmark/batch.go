package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"fuzzydup"
	"fuzzydup/internal/blocked"
	"fuzzydup/internal/core"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/eval"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/strutil"
)

// The batch workload: a census corpus, a DE_S sweep over K×c and a DE_D
// sweep over θ×c on one pruned Deduper (the phase-1 cache computes once
// per cut family: the widest cut comes first), then DE_S(4, c=4) again
// through the blocked pipeline.

const (
	batchDefaultSize = 500
	batchCorpora     = 5 // corpora per run; every run solves each at least once
)

// batchCorpus is one generated corpus and, once a facade cycle has
// solved it, its monolithic DE_S(blockedK, blockedC) partition.
type batchCorpus struct {
	ds   *dataset.Dataset
	recs []fuzzydup.Record
	ref  [][]int
}

var (
	batchK     = []int{4, 3}
	batchTheta = []float64{0.1, 0.06}
	batchC     = []float64{4, 6}
)

// blockedK and blockedC are the problem the blocked solve repeats; the
// sweep's point with the same parameters is its reference.
const (
	blockedK = 4
	blockedC = 4.0
)

// Pair precision and recall floors of DE_S(4, c=4) against the
// generator's truth on the census corpus, recorded from 60 corpora at the
// default size (lowest seen: precision 0.267, recall 0.532; the family
// confusables keep precision low) with margin.
const (
	batchPrecisionFloor = 0.15
	batchRecallFloor    = 0.40
)

// batchCycle is one measured pass: wall-clock parts and outputs.
type batchCycle struct {
	newT, deS, deD, blockedT time.Duration
	solves                   int
	ref                      [][]int // DE_S(blockedK, blockedC) partition
	blockedGroups            [][]int
	points                   map[string][][]int // every sweep point's partition
	report                   fuzzydup.RunReport
}

func runBatch(r *run) error {
	size := r.opts.size
	if size == 0 {
		size = batchDefaultSize
	}
	r.recordEnv("dataset.Census", size, "none (no writes)")

	// Set-up generates the run's corpora.
	var corpora []*batchCorpus
	_, err := r.timeSetups(r.opts.setups, func() (func(), error) {
		corpora = corpora[:0]
		for i := 0; i < batchCorpora; i++ {
			seed := r.opts.seed*batchCorpora + int64(i) + 1
			d, err := generate("dataset.Census", func() *dataset.Dataset {
				return dataset.Census(dataset.Config{Size: size, Seed: seed})
			})
			if err != nil {
				return nil, err
			}
			corpora = append(corpora, &batchCorpus{ds: d, recs: toRecords(d.Records)})
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	sizes := make([]float64, len(corpora))
	for i, c := range corpora {
		sizes[i] = float64(len(c.recs))
	}
	r.say("%d corpora of %s records; cycle i solves corpus i mod %d", len(corpora), fmtList(sizes, "%.0f"), len(corpora))

	measure := func() (map[string]float64, []batchCycle, error) {
		var cycles []batchCycle
		deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
		t0 := time.Now()
		for len(cycles) < len(corpora) || time.Now().Before(deadline) {
			corpus := corpora[len(cycles)%len(corpora)]
			c, err := batchFacadeCycle(r, corpus.recs)
			if err != nil {
				return nil, nil, err
			}
			r.checkBatch(c, corpus.ds)
			corpus.ref = c.ref
			cycles = append(cycles, c)
		}
		wall := time.Since(t0)
		var sweep, blockedT, deD []float64
		solves := 0
		for _, c := range cycles {
			sweep = append(sweep, ms(c.newT+c.deS+c.deD))
			blockedT = append(blockedT, ms(c.blockedT))
			deD = append(deD, ms(c.deD))
			solves += c.solves
		}
		e2e := map[string]float64{
			"primary_p50_ms":   corpusMean(sweep, len(corpora)),
			"secondary_p50_ms": corpusMean(blockedT, len(corpora)),
			"tertiary_p50_ms":  corpusMean(deD, len(corpora)),
			"ops_per_s":        float64(solves) / wall.Seconds(),
		}
		r.say("sweep_s    %.4f s (per-corpus medians averaged; %d cycles: %s ms)", e2e["primary_p50_ms"]/1000, len(sweep), fmtList(sweep, "%.0f"))
		r.say("blocked_s  %.4f s (per-corpus medians averaged; %d cycles: %s ms)", e2e["secondary_p50_ms"]/1000, len(blockedT), fmtList(blockedT, "%.0f"))
		r.say("de_d_sweep %.4f s, solves/s %.3f", e2e["tertiary_p50_ms"]/1000, e2e["ops_per_s"])
		r.say("DE_S(%d, c=%g) vs truth, last cycle: pair precision %.4f, recall %.4f (floors %.2f, %.2f)",
			blockedK, blockedC, r.prLast.Precision, r.prLast.Recall, batchPrecisionFloor, batchRecallFloor)
		return e2e, cycles, nil
	}

	untraced, cycles, err := measure()
	if err != nil {
		return err
	}
	for k, v := range untraced {
		r.e2e[k] = v
	}
	if !r.opts.trace {
		return nil
	}

	// The per-layer window calls the layers directly instead of through
	// the facade. It runs once untraced and once traced, so the tracing
	// overhead compares one code path with itself; the difference between
	// the facade and the direct calls is reported apart from it.
	direct, err := batchDirectWindow(r, nil, corpora)
	if err != nil {
		return err
	}
	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced, err := batchDirectWindow(r, tr, corpora)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	r.layer("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	r.layer("runtime.heap_alloc_mb", float64(ms1.HeapAlloc)/(1<<20))
	rep := cycles[0].report
	if n := rep.CacheHits + rep.CacheComputes; n > 0 {
		r.layer("core.cache_hit_frac", float64(rep.CacheHits)/float64(n))
	}
	r.compareWindows("trace overhead", "untraced", direct, "traced", traced)
	r.compareWindows("facade vs direct", "facade", untraced, "direct", direct)
	r.reportSelfTimes(tr)
	r.absentPrefix("batch runs no HTTP, query snapshot, SQL, incremental or WAL work",
		"querysnap.", "server.", "sqlwire.", "incremental.", "durable.")
	return nil
}

// corpusMean reduces per-cycle times, where cycle i solved corpus i mod
// n, to one figure that weighs every corpus equally: the mean over
// corpora of each corpus's median cycle. A plain median over cycles would
// shift with how many cycles fit in the window, since the corpora differ
// in cost.
func corpusMean(perCycle []float64, n int) float64 {
	byCorpus := make([][]float64, n)
	for i, v := range perCycle {
		byCorpus[i%n] = append(byCorpus[i%n], v)
	}
	var meds []float64
	for _, vs := range byCorpus {
		if len(vs) > 0 {
			meds = append(meds, median(vs))
		}
	}
	return mean(meds)
}

// attributionTolerance is how far the traced layers' self times may sum
// from the traced window's own end-to-end time before the report flags
// it.
const attributionTolerance = 0.10

// batchFacadeCycle runs one untraced cycle through the public facade.
func batchFacadeCycle(r *run, recs []fuzzydup.Record) (batchCycle, error) {
	c := batchCycle{points: make(map[string][][]int)}
	t0 := time.Now()
	d, err := fuzzydup.New(recs, fuzzydup.Options{Index: fuzzydup.IndexPruned, Parallel: nproc})
	r.op(err)
	if err != nil {
		return c, fmt.Errorf("fuzzydup.New: %w", err)
	}
	c.newT = time.Since(t0)

	t1 := time.Now()
	for _, k := range batchK {
		for _, cc := range batchC {
			g, err := d.GroupsBySize(k, cc)
			r.op(err)
			if err != nil {
				return c, fmt.Errorf("GroupsBySize(%d, %g): %w", k, cc, err)
			}
			c.solves++
			c.points[fmt.Sprint("DE_S", k, cc)] = g
			if k == blockedK && cc == blockedC {
				c.ref = g
			}
		}
	}
	c.deS = time.Since(t1)

	t2 := time.Now()
	for _, th := range batchTheta {
		for _, cc := range batchC {
			g, err := d.GroupsByDiameter(th, cc)
			r.op(err)
			if err != nil {
				return c, fmt.Errorf("GroupsByDiameter(%g, %g): %w", th, cc, err)
			}
			c.solves++
			c.points[fmt.Sprint("DE_D", th, cc)] = g
		}
	}
	c.deD = time.Since(t2)
	c.report = d.Report()

	t3 := time.Now()
	bd, err := fuzzydup.New(recs, fuzzydup.Options{
		Index: fuzzydup.IndexPruned, Parallel: nproc, Blocking: &fuzzydup.BlockingOptions{},
	})
	r.op(err)
	if err != nil {
		return c, fmt.Errorf("fuzzydup.New (blocked): %w", err)
	}
	bg, err := bd.GroupsBySize(blockedK, blockedC)
	r.op(err)
	if err != nil {
		return c, fmt.Errorf("blocked GroupsBySize: %w", err)
	}
	c.blockedT = time.Since(t3)
	c.solves++
	c.blockedGroups = bg
	return c, nil
}

// checkBatch runs the batch output checks on one cycle.
func (r *run) checkBatch(c batchCycle, ds *dataset.Dataset) {
	if r.opts.corrupt {
		c.blockedGroups = corruptPartition(c.blockedGroups)
	}
	for what, g := range c.points {
		r.checkPartition(g, ds.Len(), what)
	}
	r.checkPartition(c.blockedGroups, ds.Len(), "blocked DE_S(4, c=4)")
	r.check(reflect.DeepEqual(c.blockedGroups, c.ref),
		"blocked groups differ from the monolithic DE_S(%d, c=%g) groups", blockedK, blockedC)
	pr := eval.PrecisionRecall(c.ref, ds.Truth)
	r.prLast = pr
	r.check(pr.Precision >= batchPrecisionFloor, "pair precision %.4f below floor %.2f", pr.Precision, batchPrecisionFloor)
	r.check(pr.Recall >= batchRecallFloor, "pair recall %.4f below floor %.2f", pr.Recall, batchRecallFloor)
}

// checkPartition verifies that groups put every record 0..n-1 in exactly
// one group.
func (r *run) checkPartition(groups [][]int, n int, what string) {
	seen := make([]bool, n)
	count := 0
	for _, g := range groups {
		for _, id := range g {
			if !r.check(id >= 0 && id < n, "%s: record %d out of range", what, id) {
				return
			}
			if !r.check(!seen[id], "%s: record %d in more than one group", what, id) {
				return
			}
			seen[id] = true
			count++
		}
	}
	r.check(count == n, "%s: %d of %d records grouped", what, count, n)
}

// batchDirectWindow repeats the cycle as direct layer calls: the same
// sweep, decomposed into nnindex.NewPruned, core.ComputeNN (once per cut
// family, as the facade's phase-1 cache does) and core.PartitionWithStats
// per sweep point, then blocked.Solve. Every cycle's partitions must
// equal the facade's. With a tracer, one span wraps every layer call, and
// the window fills the per-layer metrics and attributes its own sweep and
// blocked times to the layers' self times.
func batchDirectWindow(r *run, tr *tracer, corpora []*batchCorpus) (map[string]float64, error) {
	var (
		sweep, blockedT, deD, build, p1, p2, solveT, mergeT []float64
		layerSweep, layerBlocked                            []float64 // span self times per cycle
		verified, pruned, fallbacks, lookups, probes        int64
		blocks, blockSolves, resolves, largest, n           int
		solves                                              int
	)
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	t0 := time.Now()
	for len(sweep) < len(corpora) || time.Now().Before(deadline) {
		corpus := corpora[len(sweep)%len(corpora)]
		keys := make([]string, len(corpus.recs))
		for i, rec := range corpus.recs {
			keys[i] = strutil.JoinFields(rec)
		}
		n = len(keys)
		var refS [][]int
		var st core.Phase1Stats
		root := tr.root("batch.sweep", "harness")
		tStart := time.Now()
		m, err := distance.ByName(string(fuzzydup.MetricEdit), keys)
		if err != nil {
			return nil, err
		}
		metric := distance.NewCounting(m)
		sp := root.child("nnindex.NewPruned", "nnindex")
		idx, err := nnindex.NewPruned(keys, metric, nnindex.PrunedConfig{})
		buildT := sp.end()
		r.op(err)
		if err != nil {
			return nil, err
		}
		var phase1, phase2 time.Duration
		sp = root.child("core.ComputeNN", "core")
		relS, err := core.ComputeNN(idx, core.Cut{MaxSize: batchK[0]}, core.DefaultP, core.Phase1Options{Parallel: nproc, Stats: &st})
		phase1 += sp.end()
		r.op(err)
		if err != nil {
			return nil, err
		}
		for _, k := range batchK {
			for _, c := range batchC {
				sp := root.child("core.PartitionWithStats", "core")
				var ps core.PartitionStats
				g, err := core.PartitionWithStats(relS.TruncateSize(k), core.Problem{Cut: core.Cut{MaxSize: k}, Agg: core.AggMax, C: c}, &ps)
				phase2 += sp.end()
				r.op(err)
				if err != nil {
					return nil, err
				}
				solves++
				if k == blockedK && c == blockedC {
					refS = g
					r.check(corpus.ref == nil || reflect.DeepEqual(g, corpus.ref), "traced DE_S(%d, c=%g) differs from the facade's", k, c)
				}
			}
		}
		tD := time.Now()
		sp = root.child("core.ComputeNN", "core")
		relD, err := core.ComputeNN(idx, core.Cut{Diameter: batchTheta[0]}, core.DefaultP, core.Phase1Options{Parallel: nproc, Stats: &st})
		phase1 += sp.end()
		r.op(err)
		if err != nil {
			return nil, err
		}
		for _, th := range batchTheta {
			for _, c := range batchC {
				sp := root.child("core.PartitionWithStats", "core")
				rel := relD.TruncateDiameter(th)
				rel.Cut = core.Cut{Diameter: th}
				var ps core.PartitionStats
				_, err := core.PartitionWithStats(rel, core.Problem{Cut: rel.Cut, Agg: core.AggMax, C: c}, &ps)
				phase2 += sp.end()
				r.op(err)
				if err != nil {
					return nil, err
				}
				solves++
			}
		}
		deD = append(deD, ms(time.Since(tD)))
		root.end()
		sweep = append(sweep, ms(time.Since(tStart)))
		build = append(build, ms(buildT))
		p1 = append(p1, ms(phase1))
		p2 = append(p2, ms(phase2))
		layerSweep = append(layerSweep, ms(buildT+phase1+phase2))
		verified += st.Candidates.Load()
		pruned += st.Pruned.Load()
		fallbacks += st.Fallbacks.Load()
		lookups += st.Lookups.Load()
		probes += st.Probes.Load()

		broot := tr.root("batch.blocked", "harness")
		tB := time.Now()
		var bst core.Phase1Stats
		maxBlock := 0
		sp = broot.child("blocked.Solve", "blocked")
		res, err := blocked.Solve(keys, metric, core.Problem{Cut: core.Cut{MaxSize: blockedK}, Agg: core.AggMax, C: blockedC},
			blocked.DefaultStrategy(), blocked.Options{
				Parallel:   nproc,
				Exhaustive: true,
				Stats:      &bst,
				Prefilter:  true,
				OnBlockSolved: func(size int, _ time.Duration) {
					maxBlock = max(maxBlock, size)
				},
			})
		solveSpan := sp.end()
		broot.end()
		r.op(err)
		if err != nil {
			return nil, err
		}
		blockedT = append(blockedT, ms(time.Since(tB)))
		layerBlocked = append(layerBlocked, ms(solveSpan))
		solves++
		r.check(reflect.DeepEqual(res.Groups, refS), "traced blocked.Solve groups differ from the monolithic groups")
		blocks, blockSolves, resolves, largest = res.Blocks, res.BlocksSolved, res.BoundaryResolves, maxBlock
		solveT = append(solveT, ms(res.SolveTime))
		mergeT = append(mergeT, ms(res.MergeTime))
	}
	wall := time.Since(t0)
	e2e := map[string]float64{
		"primary_p50_ms":   corpusMean(sweep, len(corpora)),
		"secondary_p50_ms": corpusMean(blockedT, len(corpora)),
		"tertiary_p50_ms":  corpusMean(deD, len(corpora)),
		"ops_per_s":        float64(solves) / wall.Seconds(),
	}
	if tr == nil {
		return e2e, nil
	}

	// Attribution: the layers' self times against the same window's
	// sweep and blocked times, both reduced per corpus as sweep_s is.
	within := func(part, whole float64) string {
		if math.Abs(part-whole) <= attributionTolerance*whole {
			return "within"
		}
		return "OUTSIDE"
	}
	part, whole := corpusMean(layerSweep, len(corpora)), e2e["primary_p50_ms"]
	r.say("attribution: nnindex+core self %.1f ms vs the traced window's sweep_s %.1f ms (%.1f%%, %s ±%.0f%%)",
		part, whole, 100*part/whole, within(part, whole), 100*attributionTolerance)
	part, whole = corpusMean(layerBlocked, len(corpora)), e2e["secondary_p50_ms"]
	r.say("attribution: blocked self %.1f ms vs the traced window's blocked_s %.1f ms (%.1f%%, %s ±%.0f%%)",
		part, whole, 100*part/whole, within(part, whole), 100*attributionTolerance)

	// Counts are per cycle (mean over the window's cycles); times are
	// medians over cycles.
	cycles := float64(len(sweep))
	r.layer("nnindex.build_ms", median(build))
	r.layer("nnindex.verified", float64(verified)/cycles)
	r.layer("nnindex.pruned", float64(pruned)/cycles)
	if verified+pruned > 0 {
		r.layer("nnindex.prune_frac", float64(pruned)/float64(verified+pruned))
	}
	r.layer("nnindex.fallbacks", float64(fallbacks)/cycles)
	if verified > 0 {
		r.layer("nnindex.ns_per_verify", mean(p1)*cycles*1e6/float64(verified))
	}
	r.layer("core.phase1_ms", median(p1))
	r.layer("core.phase2_ms", median(p2))
	r.layer("core.lookups", float64(lookups)/cycles)
	r.layer("core.probes", float64(probes)/cycles)
	r.layer("blocked.blocks", float64(blocks))
	r.layer("blocked.block_solves", float64(blockSolves))
	r.layer("blocked.boundary_resolves", float64(resolves))
	r.layer("blocked.largest_block_frac", float64(largest)/float64(n))
	r.layer("blocked.solve_ms", median(solveT))
	r.layer("blocked.merge_ms", median(mergeT))
	r.say("traced: %d cycles; last cycle: blocks %d, block solves %d, largest block %d of %d",
		len(sweep), blocks, blockSolves, largest, n)

	return e2e, nil
}

// corruptPartition returns a copy of groups with the first record moved
// into the last group (the self-test's deliberately wrong output).
func corruptPartition(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	if len(out) >= 2 && len(out[0]) > 0 {
		last := len(out) - 1
		out[last] = append(out[last], out[0][0])
		out[0] = out[0][1:]
	}
	return out
}
