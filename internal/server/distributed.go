package server

import (
	"context"

	"fuzzydup"
	"fuzzydup/internal/blocked"
	"fuzzydup/internal/cluster"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/obs/promtext"
	"fuzzydup/internal/strutil"
)

// The distributed job path: a coordinator node runs the blocked pipeline
// locally — seeding, canopy merge, boundary guard, reconciliation — with
// every per-block solve shipped to a worker through the cluster
// coordinator (placement by consistent hashing, bounded retries,
// reassignment on worker death, local fallback when no worker is
// reachable). The groups are bit-for-bit what the batch path computes on
// the same snapshot; see internal/cluster's package comment and
// DESIGN.md §11 for the exactness argument.

// defaultDistributedParallel is the block fan-out when the spec leaves
// Parallel unset. Remote solves are network-bound, not CPU-bound, so
// serial (the batch default) would ship one block at a time.
const defaultDistributedParallel = 8

// solveDistributed runs a distributed job's sweep through the engine's
// cluster coordinator. normalize validated the spec as a blocked solve
// with the exact index and a corpus-independent metric, and Submit
// guaranteed e.coord is non-nil.
func (e *Engine) solveDistributed(j *job) error {
	records, rids, rev, err := e.store.SnapshotFull(j.spec.Dataset)
	if err != nil {
		return err
	}
	keys := make([]string, len(records))
	for i, r := range records {
		keys[i] = strutil.JoinFields(r)
	}
	base, err := distance.ByName(j.prob.Metric, keys)
	if err != nil {
		return err
	}
	// The counter sees the coordinator's own calls (guard probes, local
	// fallbacks, representatives) and the workers' metric calls, which
	// the coordinator adds to it; the phase-1 stats fold in every
	// block's kernel verifications, remote ones included (SolveResponse
	// forwards both).
	counter := distance.NewCounting(base)
	agg, err := core.ParseAgg(j.prob.Agg)
	if err != nil {
		return err
	}
	ds := cluster.Dataset{ID: j.spec.Dataset, Revision: rev}
	parallel := j.spec.Parallel
	if parallel <= 0 {
		parallel = defaultDistributedParallel
	}

	// The deferred block runs on every exit — success, failure, or
	// cancellation — so partial runs still publish their distance-call
	// total and RunReport, mirroring the batch path.
	report := &fuzzydup.RunReport{}
	defer func() {
		report.DistanceCalls = counter.Calls() + report.Phase1Candidates
		e.metrics.distanceCalls.Add(report.DistanceCalls)
		j.mu.Lock()
		j.report = report
		j.mu.Unlock()
	}()

	results := make([]SweepResult, len(j.points))
	for _, idx := range sweepOrder(j.points) {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if e.testBeforeSolve != nil {
			e.testBeforeSolve(j.ctx, j.id)
		}
		pt := j.points[idx]
		prob := core.Problem{
			Cut:            pt.cut(),
			Agg:            agg,
			C:              pt.C,
			P:              j.prob.P,
			MinimalCompact: j.prob.MinimalCompact,
		}

		var p1 core.Phase1Stats
		res, err := e.coord.Solve(j.ctx, ds, keys, counter, j.prob.Metric, prob,
			blocked.DefaultStrategy(), blocked.Options{
				Parallel: parallel,
				// Normalized metrics may violate the triangle inequality,
				// which the pivot guard needs; full foreign scans are always
				// sound (the same choice the facade's blocked path defaults
				// to).
				Exhaustive:    true,
				Ctx:           j.ctx,
				Stats:         &p1,
				OnBlockSolved: e.metrics.observeBlock,
			})
		if err != nil {
			return err
		}

		point := fuzzydup.RunReport{
			Phase1:           res.SolveTime,
			Phase2:           res.MergeTime,
			BlocksSolved:     res.BlocksSolved,
			BoundaryResolves: res.BoundaryResolves,
			Phase1Pruned:     p1.Pruned.Load(),
			Phase1Candidates: p1.Candidates.Load(),
			Phase1Fallbacks:  p1.Fallbacks.Load(),
		}
		e.metrics.observePoint(point)

		report.Solves++
		report.Phase1 += res.SolveTime
		report.Phase2 += res.MergeTime
		report.Lookups += p1.Lookups.Load()
		report.IndexProbes += p1.Probes.Load()
		report.Phase1Pruned += point.Phase1Pruned
		report.Phase1Candidates += point.Phase1Candidates
		report.Phase1Fallbacks += point.Phase1Fallbacks
		report.Groups += res.Partition.Groups
		report.DuplicateGroups += res.Partition.Duplicates
		report.Splits += res.Partition.Splits
		report.RejectedCompact += res.Partition.RejectedCompact
		report.RejectedSN += res.Partition.RejectedSN
		report.RejectedExcluded += res.Partition.RejectedExcluded
		report.BlocksSolved += res.BlocksSolved
		report.BoundaryResolves += res.BoundaryResolves

		groups := fuzzydup.Groups(res.Groups)
		reps := make([]int, len(groups))
		for i, g := range groups {
			// The medoid Deduper.Representative picks, so distributed
			// results render identically to batch results.
			reps[i] = core.Medoid(g, func(a, b int) float64 { return counter.Distance(keys[a], keys[b]) })
		}
		results[idx] = j.solved(pt, groups, reps)
	}
	j.stash(records, rids, rev, results)
	return nil
}

// The cluster hooks: each role declares one "cluster" JSON entry,
// evaluated at read time, and its Prometheus families. A coordinator
// exports its membership view plus the fleet roll-up; a worker exports
// its block-solve counters. The two sides keep their own names (JSON
// "solves", Prometheus dedupd_worker_block_solves_total), which dedupstat
// and the coordinator's roll-up read.

func (s *Server) coordinatorFamilies(pw *promtext.Writer) {
	s.coord.WriteCoordinatorFamilies(pw)
	s.coord.WriteRollup(context.Background(), pw)
}

func (s *Server) coordinatorJSON() any {
	return map[string]any{
		"role":              "coordinator",
		"workers":           s.coord.Workers(),
		"workers_alive":     s.coord.WorkersAlive(),
		"blocks_reassigned": s.coord.BlocksReassigned.Load(),
		"remote_errors":     s.coord.RemoteErrors.Load(),
		"local_fallbacks":   s.coord.LocalFallbacks.Load(),
	}
}

func (s *Server) workerFamilies(pw *promtext.Writer) {
	w := s.worker
	pw.Counter("dedupd_worker_block_solves_total",
		"Remote block solves executed by this worker.",
		promtext.Sample{Value: float64(w.Solves.Load())})
	pw.Counter("dedupd_worker_block_cache_hits_total",
		"Solve requests replayed from the idempotency cache.",
		promtext.Sample{Value: float64(w.CacheHits.Load())})
	pw.Counter("dedupd_worker_block_solves_rejected_total",
		"Solve requests refused while draining.",
		promtext.Sample{Value: float64(w.Rejected.Load())})
	pw.Histogram("dedupd_worker_block_solve_duration_ms",
		"Worker-side block solve durations.",
		promtext.HistogramSample{Snapshot: w.SolveDuration.Snapshot()})
}

func (s *Server) workerJSON() any {
	return map[string]any{
		"role":       "worker",
		"draining":   s.worker.Draining(),
		"solves":     s.worker.Solves.Load(),
		"cache_hits": s.worker.CacheHits.Load(),
		"rejected":   s.worker.Rejected.Load(),
	}
}
