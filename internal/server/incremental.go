package server

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"fuzzydup"
	"fuzzydup/internal/core"
	"fuzzydup/internal/obs"
)

// Incremental sessions: a per-dataset fuzzydup.Incremental engine kept
// alive between jobs. An incremental job (JobSpec.Incremental) does not
// resolve the dataset from scratch — it reconciles the session's engine
// against the store's current (records, rids) snapshot, applying exactly
// the inserts, deletes, and updates that happened since the last repair,
// each as a local dirty-set repair. Record mutation endpoints submit such
// a job automatically while a session exists, so the published groups
// follow the dataset with per-change cost instead of per-dataset cost.
//
// Reconciling against the full snapshot (rather than shipping individual
// ops to the engine) makes repair jobs idempotent and order-independent:
// however many mutations coalesced while a repair was queued, and in
// whatever order repairs for them run, each job leaves the session equal
// to the snapshot it read, and the final job leaves it equal to the final
// dataset.

// incSession is one dataset's live incremental engine. mu serializes
// repairs — concurrent repair jobs for the same dataset run one at a
// time, each against the snapshot it took.
type incSession struct {
	mu      sync.Mutex
	key     solveKey // a job with another key rebuilds the session
	spec    JobSpec  // normalized spec, resubmitted by NotifyMutation
	inc     *fuzzydup.Incremental
	byRID   map[int64]int // store rid -> engine stable ID
	ridOf   map[int]int64 // engine stable ID -> store rid
	repairs int           // reconcile ops applied over the session's life
}

// reconcile drives the session's engine to equal the snapshot, returning
// the per-operation repair statistics (a fresh session returns the single
// "build" entry). ctx is polled between operations so a cancelled job
// stops repairing; the session stays consistent (each applied op is a
// complete repair) and the next job finishes the reconciliation.
func (s *incSession) reconcile(ctx context.Context, records []fuzzydup.Record, rids []int64, tr *obs.Tracer) ([]fuzzydup.RepairStats, error) {
	if s.inc == nil {
		opts := s.spec.options(solveIncremental)
		// The initial build's solve spans nest under the building job's
		// trace. Later repairs run without spans (the engine outlives any
		// single job), but their stats still reach the job via LastRepair.
		opts.Tracer = tr
		inc, err := fuzzydup.NewIncremental(records, s.key.incremental(), opts)
		if err != nil {
			return nil, err
		}
		s.inc = inc
		s.byRID = make(map[int64]int, len(rids))
		s.ridOf = make(map[int]int64, len(rids))
		for i, rid := range rids {
			id := i // NewIncremental assigns 0..n-1 in order
			s.byRID[rid] = id
			s.ridOf[id] = rid
		}
		return []fuzzydup.RepairStats{s.inc.LastRepair()}, nil
	}

	var stats []fuzzydup.RepairStats
	apply := func() error {
		s.repairs++
		stats = append(stats, s.inc.LastRepair())
		return ctx.Err()
	}
	present := make(map[int64]int, len(rids))
	for i, rid := range rids {
		present[rid] = i
	}
	// Deletes first: rids the store no longer holds.
	for rid, id := range s.byRID {
		if _, ok := present[rid]; ok {
			continue
		}
		if err := s.inc.Delete(id); err != nil {
			return stats, fmt.Errorf("reconcile delete rid %d: %w", rid, err)
		}
		delete(s.byRID, rid)
		delete(s.ridOf, id)
		if err := apply(); err != nil {
			return stats, err
		}
	}
	// Then inserts and in-place updates, in snapshot order.
	for i, rid := range rids {
		if id, ok := s.byRID[rid]; ok {
			cur, _ := s.inc.Record(id)
			if reflect.DeepEqual(cur, records[i]) {
				continue
			}
			if err := s.inc.Update(id, records[i]); err != nil {
				return stats, fmt.Errorf("reconcile update rid %d: %w", rid, err)
			}
		} else {
			id := s.inc.Insert(records[i])
			s.byRID[rid] = id
			s.ridOf[id] = rid
		}
		if err := apply(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// sessionFor returns the dataset's live session, replacing it when the
// job's key differs (the engine is bound to one problem and point; a new
// cut or metric means a rebuild).
func (e *Engine) sessionFor(spec JobSpec, key solveKey) *incSession {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if s, ok := e.sessions[spec.Dataset]; ok && s.key == key {
		return s
	}
	s := &incSession{key: key, spec: spec}
	if e.sessions == nil {
		e.sessions = make(map[string]*incSession)
	}
	e.sessions[spec.Dataset] = s
	e.metrics.incrementalSessions.Set(int64(len(e.sessions)))
	return s
}

// DropSession forgets a dataset's incremental session (dataset deleted).
func (e *Engine) DropSession(dataset string) {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if _, ok := e.sessions[dataset]; ok {
		delete(e.sessions, dataset)
		e.metrics.incrementalSessions.Set(int64(len(e.sessions)))
	}
}

// NotifyMutation submits a repair job for the dataset's live session, if
// any, returning the job ID ("" when no session exists or submission was
// rejected). Mutations never fail because a repair could not be queued —
// the session catches up on the next successful repair, since every
// repair reconciles against the full current snapshot.
func (e *Engine) NotifyMutation(dataset, requestID string) string {
	e.sessMu.Lock()
	s, ok := e.sessions[dataset]
	e.sessMu.Unlock()
	if !ok {
		return ""
	}
	st, err := e.Submit(s.spec, requestID)
	if err != nil {
		e.logger.Warn("repair job submission failed",
			"dataset", dataset, "error", err.Error(), "request_id", requestID)
		return ""
	}
	return st.ID
}

// solveIncremental runs one incremental job: take a consistent snapshot,
// reconcile the session's engine to it, and publish the resulting groups
// in snapshot order (with the rid of every record, so clients can address
// group members for further mutation).
func (e *Engine) solveIncremental(j *job) error {
	records, rids, rev, err := e.store.SnapshotFull(j.spec.Dataset)
	if err != nil {
		return err
	}
	sess := e.sessionFor(j.spec, solveKey{j.prob, j.points[0]})
	sess.mu.Lock()
	defer sess.mu.Unlock()

	stats, err := sess.reconcile(j.ctx, records, rids, j.span.Tracer())
	for _, st := range stats {
		// Each repair op is a first-class unit of phase work: its dirty
		// relookup and stitched partition land in the same phase1/phase2
		// histograms batch sweep points use, plus the repair-specific
		// counters.
		e.metrics.repairsRun.Add(1)
		e.metrics.repairDirtyLookups.Add(int64(st.DirtyLookups))
		e.metrics.distanceCalls.Add(st.DistanceCalls)
		e.metrics.phase1Duration.ObserveDuration(st.Phase1)
		e.metrics.phase2Duration.ObserveDuration(st.Phase2)
		e.metrics.repairDuration.ObserveDuration(st.Phase1 + st.Phase2)
		e.slow.note("repair", st.Phase1+st.Phase2, func() SlowOp {
			return SlowOp{
				Dataset:   j.spec.Dataset,
				Job:       j.id,
				RequestID: j.requestID,
				Counters: map[string]int64{
					"dirty_lookups":  int64(st.DirtyLookups),
					"distance_calls": st.DistanceCalls,
				},
			}
		})
	}
	if err != nil {
		return err
	}

	// Relabel the engine's stable-ID groups into snapshot indexes, then
	// order and pick medoids over those indexes, as a batch job does: the
	// engine's slot order is not dataset order once a slot is reused.
	idxOf := make(map[int64]int, len(rids))
	for i, rid := range rids {
		idxOf[rid] = i
	}
	var groups fuzzydup.Groups
	for _, g := range sess.inc.Groups() {
		m := make([]int, len(g))
		for i, id := range g {
			m[i] = idxOf[sess.ridOf[id]]
		}
		groups = append(groups, m)
	}
	core.SortGroups(groups)
	dist := func(a, b int) float64 {
		return sess.inc.Distance(sess.byRID[rids[a]], sess.byRID[rids[b]])
	}
	reps := make([]int, len(groups))
	for i, g := range groups {
		reps[i] = core.Medoid(g, dist)
	}
	j.stash(records, rids, rev, []SweepResult{j.solved(j.points[0], groups, reps)})
	return nil
}
