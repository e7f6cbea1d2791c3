package server

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"time"

	"fuzzydup"
	"fuzzydup/internal/durable"
)

// persistedJob is the WAL payload of a committed job result: everything
// needed to serve GET /v1/jobs/{id} and /result after a restart. The
// payload is opaque to the durable layer; this type is its schema.
type persistedJob struct {
	ID        string              `json:"id"`
	Spec      JobSpec             `json:"spec"`
	RequestID string              `json:"request_id,omitempty"`
	Created   time.Time           `json:"created"`
	Started   time.Time           `json:"started"`
	Finished  time.Time           `json:"finished"`
	Records   int                 `json:"records"`
	Done      int                 `json:"done"`
	Results   []SweepResult       `json:"results"`
	RecordIDs []int64             `json:"record_ids,omitempty"`
	Report    *fuzzydup.RunReport `json:"report,omitempty"`
}

// walError wraps a durability failure surfaced through an HTTP handler
// (mapped to 500 by writeServiceError's default arm).
type walError struct{ err error }

func (e *walError) Error() string { return "durability: " + e.err.Error() }
func (e *walError) Unwrap() error { return e.err }

// logAppend writes one op through the store's WAL, returning the
// sequence to pass to logCommit. Without a WAL both are no-ops, so the
// mutation paths read identically in memory-only mode.
func (s *Store) logAppend(op durable.Op) (uint64, error) {
	if s.db == nil {
		return 0, nil
	}
	seq, err := s.db.Append(op)
	if err != nil {
		return 0, &walError{err}
	}
	return seq, nil
}

// logCommit blocks until the sequence is durable. Called after s.mu is
// released: the group commit may wait on an fsync, and holding the
// store lock across it would serialize reads behind the disk.
func (s *Store) logCommit(seq uint64) error {
	if s.db == nil || seq == 0 {
		return nil
	}
	if err := s.db.Commit(seq); err != nil {
		return &walError{err}
	}
	return nil
}

// load populates the store from a recovered state. Called once, before
// the server serves traffic.
func (s *Store) load(st *durable.State) {
	for _, d := range st.Datasets {
		s.datasets[d.ID] = &datasetEntry{
			id:      d.ID,
			name:    d.Name,
			created: time.Unix(0, d.CreatedUnixNano).UTC(),
			records: append([]fuzzydup.Record(nil), d.Records...),
			rids:    append([]int64(nil), d.RIDs...),
			nextRID: d.NextRID,
		}
	}
	s.nextID = st.NextDatasetID
}

// jobNum extracts the numeric part of a "job-NNNNNN" ID (0 if malformed).
func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// commitJob persists a finished job's result to the WAL, blocking until
// it is durable. Called by run() before the job's state flips to done,
// so a result is never observable that a restart would lose. A WAL
// failure is logged but does not fail the job: the result remains
// correct and servable for this process's lifetime.
func (e *Engine) commitJob(j *job) {
	if e.db == nil {
		return
	}
	j.mu.Lock()
	pj := persistedJob{
		ID:        j.id,
		Spec:      j.spec,
		RequestID: j.requestID,
		Created:   j.created,
		Started:   j.started,
		Finished:  j.finished,
		Records:   j.records,
		Done:      j.done,
		Results:   j.results,
		RecordIDs: j.recordIDs,
		Report:    j.report,
	}
	j.mu.Unlock()
	payload, err := json.Marshal(pj)
	if err == nil {
		err = e.db.AppendSync(&durable.JobCommit{ID: j.id, Counter: jobNum(j.id), Payload: payload})
	}
	if err != nil {
		e.logger.Warn("job result not persisted", "job_id", j.id, "error", err)
	}
}

// forgetJob removes a job's retained result from the WAL (the job was
// deleted via the API).
func (e *Engine) forgetJob(id string) {
	if e.db == nil {
		return
	}
	if err := e.db.AppendSync(&durable.JobForget{ID: id}); err != nil {
		e.logger.Warn("job forget not persisted", "job_id", id, "error", err)
	}
}

// restore re-registers recovered job results as terminal done jobs, so
// their statuses and results are servable after a restart exactly as
// before it.
func (e *Engine) restore(st *durable.State) {
	for _, js := range st.Jobs {
		var pj persistedJob
		if err := json.Unmarshal(js.Payload, &pj); err != nil {
			e.logger.Warn("skipping unreadable persisted job", "job_id", js.ID, "error", err)
			continue
		}
		// The spec was normalized and validated when the job was
		// submitted; validating it again could drop a committed result
		// under rules added since.
		pl, err := pj.Spec.plan()
		if err != nil {
			e.logger.Warn("skipping persisted job with invalid spec", "job_id", pj.ID, "error", err)
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // terminal: nothing will ever run under this context
		j := &job{
			id:        pj.ID,
			spec:      pj.Spec,
			plan:      pl,
			requestID: pj.RequestID,
			ctx:       ctx,
			cancel:    cancel,
			state:     StateDone,
			done:      pj.Done,
			records:   pj.Records,
			results:   pj.Results,
			recordIDs: pj.RecordIDs,
			report:    pj.Report,
			created:   pj.Created,
			started:   pj.Started,
			finished:  pj.Finished,
		}
		e.jobs[j.id] = j
		if n := jobNum(j.id); n > e.nextID {
			e.nextID = n
		}
	}
	if st.NextJobID > e.nextID {
		e.nextID = st.NextJobID
	}
}

// durableHooks adapts the WAL's observation points to the server's
// metrics.
func (m *Metrics) durableHooks() durable.Hooks {
	return durable.Hooks{
		AppendDone: func(bytes int, elapsed time.Duration) {
			m.walAppends.Add(1)
			m.walBytes.Add(int64(bytes))
			m.walAppendDuration.ObserveDuration(elapsed)
		},
		FsyncDone: func(elapsed time.Duration) {
			m.walFsyncs.Add(1)
			m.walFsyncDuration.ObserveDuration(elapsed)
		},
		SnapshotDone: func(time.Duration) {
			m.snapshotsTaken.Add(1)
		},
	}
}
