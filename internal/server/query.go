package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydup"
	"fuzzydup/internal/obs"
	"fuzzydup/internal/querysnap"
)

// The online point-query path. Every completed job — batch or
// incremental repair — rebuilds the dataset's query snapshot off the hot
// path and publishes it with one atomic pointer swap (RCU-style): readers
// load the pointer, use the immutable snapshot, and never take a lock or
// block a writer. A dataset that has never completed a job has no
// snapshot and answers 409 until one does.

// snapEntry is one dataset's publication slot.
type snapEntry struct {
	ptr atomic.Pointer[published]
	mu  sync.Mutex // serializes publishers (never held by readers)
	seq uint64     // publication counter, guarded by mu
}

// published is one publication: the immutable snapshot, the key of the
// solve it holds, and the SQL rows derived from it. The rows are built on
// the first SQL read that needs them (see sqlcatalog.go), never at
// publish time, so REST-only traffic does not pay for them. A republish
// swaps in a fresh value and drop forgets the entry, so the rows live
// exactly as long as their snapshot.
type published struct {
	snap *querysnap.Snapshot
	key  solveKey
	// dedup, groups and nn hold the DEDUP(), dup_groups and nn_reln rows.
	dedup, groups, nn lazyRows
}

// snapRegistry maps dataset IDs to their published snapshots. Lookups
// are lock-free (sync.Map + atomic pointer); publication serializes per
// dataset.
type snapRegistry struct {
	entries sync.Map // dataset ID -> *snapEntry
}

// lookup returns the dataset's current snapshot, or nil if none is
// published.
func (r *snapRegistry) lookup(dataset string) *querysnap.Snapshot {
	if p := r.current(dataset); p != nil {
		return p.snap
	}
	return nil
}

// current returns the dataset's current publication, or nil if none.
func (r *snapRegistry) current(dataset string) *published {
	v, ok := r.entries.Load(dataset)
	if !ok {
		return nil
	}
	return v.(*snapEntry).ptr.Load()
}

// publish builds a snapshot from cfg, the partition of the solve key
// names, and swaps it in, assigning the dataset's next sequence number.
// A build whose revision is older than the published snapshot's is
// dropped: a slow job must not shadow the fresher state a later job
// already published. Returns the published snapshot, or nil if the
// build was dropped or failed.
func (r *snapRegistry) publish(cfg querysnap.Config, key solveKey) (*querysnap.Snapshot, error) {
	v, _ := r.entries.LoadOrStore(cfg.Dataset, &snapEntry{})
	e := v.(*snapEntry)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.ptr.Load(); cur != nil && cur.snap.Rev() > cfg.Rev {
		return nil, nil
	}
	cfg.Seq = e.seq + 1
	snap, err := querysnap.Build(cfg)
	if err != nil {
		return nil, err
	}
	e.seq++
	e.ptr.Store(&published{snap: snap, key: key})
	return snap, nil
}

// drop forgets a dataset's snapshot and the SQL rows built from it
// (dataset deleted). Subsequent queries answer 409 until a new job
// publishes.
func (r *snapRegistry) drop(dataset string) {
	r.entries.Delete(dataset)
}

// maxAge returns the age in seconds of the stalest published snapshot —
// max over datasets of (now − Built) — or 0 with none published. This
// backs the query_snapshot_age_seconds gauge, evaluated at scrape time.
func (r *snapRegistry) maxAge(now time.Time) float64 {
	var oldest float64
	r.entries.Range(func(_, v any) bool {
		if p := v.(*snapEntry).ptr.Load(); p != nil {
			if age := now.Sub(p.snap.Built()).Seconds(); age > oldest {
				oldest = age
			}
		}
		return true
	})
	return oldest
}

// noSnapshotError marks a query against a dataset with no solved state
// (HTTP 409: the request is well-formed, the dataset exists, but the
// server has nothing to answer from until a job completes).
type noSnapshotError struct{ dataset string }

func (e *noSnapshotError) Error() string {
	return fmt.Sprintf("dataset %q has no solved state; run a job first", e.dataset)
}

// publishSnapshot builds and publishes the query snapshot of a job that
// just reached done, from the solve's own (records, rids, rev) snapshot
// and its first sweep point's partition. Runs on the job worker, before
// the done state is observable, so any client that sees the job finish
// can immediately query the state it computed. Build failures are logged,
// not fatal: the job's result is correct and servable regardless.
func (e *Engine) publishSnapshot(j *job) {
	j.mu.Lock()
	records, rids, rev := j.snapRecords, j.snapRIDs, j.snapRev
	// The records are handed to the snapshot; drop the job's reference so
	// retained job objects don't pin a second copy of the corpus.
	j.snapRecords, j.snapRIDs = nil, nil
	var res *SweepResult
	if len(j.results) > 0 {
		res = &j.results[0]
	}
	j.mu.Unlock()
	if res == nil || records == nil {
		return
	}
	if _, err := e.store.Get(j.spec.Dataset); err != nil {
		return // dataset deleted while the job ran; nothing to serve
	}
	recs := make([][]string, len(records))
	for i, r := range records {
		recs[i] = r
	}
	start := time.Now()
	snap, err := e.snaps.publish(querysnap.Config{
		Dataset: j.spec.Dataset,
		Rev:     rev,
		JobID:   j.id,
		Built:   start,
		Records: recs,
		RIDs:    rids,
		Groups:  res.Groups,
		Reps:    res.Representatives,
		Params: querysnap.Params{
			Mode:   j.spec.Mode,
			K:      res.K,
			Theta:  res.Theta,
			C:      res.C,
			Metric: j.prob.Metric,
		},
	}, solveKey{j.prob, j.points[0]})
	if err != nil {
		e.logger.Warn("query snapshot build failed",
			"job_id", j.id, "dataset", j.spec.Dataset, "error", err.Error())
		return
	}
	if snap == nil {
		e.logger.Debug("query snapshot dropped as stale",
			"job_id", j.id, "dataset", j.spec.Dataset, "rev", rev)
		return
	}
	e.metrics.snapshotsPublished.Add(1)
	e.metrics.snapshotBuildDuration.ObserveDuration(time.Since(start))
	e.logger.Info("query snapshot published",
		"job_id", j.id,
		"dataset", j.spec.Dataset,
		"seq", snap.Seq(),
		"rev", rev,
		"records", snap.Len(),
		"groups", snap.Groups(),
		"build_us", time.Since(start).Microseconds(),
		"request_id", j.requestID)
}

// queryRequest is the body of POST /v1/datasets/{id}/query.
type queryRequest struct {
	// Record is the record to look up. Required, non-empty.
	Record fuzzydup.Record `json:"record"`
	// K is how many nearest candidates to return when no exact match
	// exists (default 5, max 100; 0 asks for exact matches only). Note
	// the prefilter prunes hardest at small k: the k-th best distance is
	// the pruning threshold, and on corpora without near-duplicate
	// structure large k forces verification of most records.
	K *int `json:"k,omitempty"`
}

// maxQueryK bounds the candidate count of one query.
const maxQueryK = 100

// defaultQueryK is the candidate count when the request leaves k unset.
const defaultQueryK = 5

// querySnapshotMeta describes which published state answered a query.
type querySnapshotMeta struct {
	// Seq is the dataset's publication sequence number; it increases by
	// one with every published snapshot.
	Seq   uint64    `json:"seq"`
	Built time.Time `json:"built"`
	// Job is the job whose result the snapshot holds.
	Job string `json:"job"`
	// Rev is the dataset revision the snapshot was built from;
	// CurrentRev the live revision; Stale their disagreement — true when
	// mutations landed after the solve and the answer may not reflect
	// them yet.
	Rev        int64 `json:"rev"`
	CurrentRev int64 `json:"current_rev"`
	Stale      bool  `json:"stale"`
	// Records and Groups describe the snapshot's indexed state.
	Records int `json:"records"`
	Groups  int `json:"groups"`
	// Prefiltered reports whether the metric admits the certified
	// signature bound (candidate scans prune) or falls back to a full
	// exact scan.
	Prefiltered bool             `json:"prefiltered"`
	Params      querysnap.Params `json:"params"`
}

// queryResponse is the body of a successful query.
type queryResponse struct {
	Dataset    string                `json:"dataset"`
	Snapshot   querySnapshotMeta     `json:"snapshot"`
	Matches    []querysnap.Match     `json:"matches"`
	Candidates []querysnap.Candidate `json:"candidates"`
	Stats      querysnap.Stats       `json:"stats"`
}

func (s *Server) handleDatasetQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req queryRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeServiceError(w, err)
		return
	}
	if len(req.Record) == 0 {
		writeServiceError(w, &specError{"missing record"})
		return
	}
	k := defaultQueryK
	if req.K != nil {
		k = *req.K
		if k < 0 || k > maxQueryK {
			writeServiceError(w, &specError{fmt.Sprintf("k = %d must be in [0, %d]", k, maxQueryK)})
			return
		}
	}
	// 404 for an unknown dataset beats 409: "no solved state" presumes
	// the dataset exists. Rev doubles as the existence check.
	rev, err := s.store.Rev(id)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	snap := s.engine.snaps.lookup(id)
	if snap == nil {
		writeServiceError(w, &noSnapshotError{dataset: id})
		return
	}

	span := s.tracer.Start("http.query")
	start := time.Now()
	res := snap.Lookup(req.Record, k)
	elapsed := time.Since(start)
	span.Add("scanned", int64(res.Stats.Scanned))
	span.Add("verified", int64(res.Stats.Verified))
	span.Add("pruned", int64(res.Stats.Pruned))
	span.End()

	s.metrics.queries.Add(1)
	s.metrics.queryDuration.ObserveDuration(elapsed)
	s.metrics.queryPruned.Add(int64(res.Stats.Pruned))
	if len(res.Matches) > 0 {
		s.metrics.queryMatches.Add(1)
	} else {
		s.metrics.queryMisses.Add(1)
	}
	s.slowOps.note("query", elapsed, func() SlowOp {
		return SlowOp{
			Dataset:   id,
			RequestID: obs.RequestID(r.Context()),
			Counters: map[string]int64{
				"scanned":    int64(res.Stats.Scanned),
				"verified":   int64(res.Stats.Verified),
				"pruned":     int64(res.Stats.Pruned),
				"matches":    int64(len(res.Matches)),
				"candidates": int64(len(res.Candidates)),
			},
		}
	})
	s.cfg.Logger.Debug("query",
		"dataset", id,
		"snapshot_seq", snap.Seq(),
		"matches", len(res.Matches),
		"candidates", len(res.Candidates),
		"pruned", res.Stats.Pruned,
		"duration_us", elapsed.Microseconds(),
		"request_id", obs.RequestID(r.Context()))

	matches := res.Matches
	if matches == nil {
		matches = []querysnap.Match{}
	}
	candidates := res.Candidates
	if candidates == nil {
		candidates = []querysnap.Candidate{}
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Dataset: id,
		Snapshot: querySnapshotMeta{
			Seq:         snap.Seq(),
			Built:       snap.Built(),
			Job:         snap.JobID(),
			Rev:         snap.Rev(),
			CurrentRev:  rev,
			Stale:       rev != snap.Rev(),
			Records:     snap.Len(),
			Groups:      snap.Groups(),
			Prefiltered: snap.Prefiltered(),
			Params:      snap.Params(),
		},
		Matches:    matches,
		Candidates: candidates,
		Stats:      res.Stats,
	})
}
