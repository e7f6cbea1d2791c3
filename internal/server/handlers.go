package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fuzzydup"
	"fuzzydup/internal/obs"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "durable": s.db != nil})
}

// handleReadyz answers 200 while the job queue accepts work and 503 once
// shutdown has begun, so load balancers stop routing to a draining
// instance while /healthz keeps reporting it alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.engine.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "durable": s.db != nil})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "durable": s.db != nil})
}

// datasetCreateRequest is the body of POST /v1/datasets.
type datasetCreateRequest struct {
	// Name is an optional human label.
	Name string `json:"name,omitempty"`
	// Records is an optional initial batch; more can be streamed to
	// /v1/datasets/{id}/records afterwards.
	Records []fuzzydup.Record `json:"records,omitempty"`
}

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	var req datasetCreateRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeServiceError(w, err)
		return
	}
	info, err := s.store.Create(req.Name, req.Records)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	s.metrics.datasets.Add(1)
	s.metrics.recordsIngested.Add(int64(info.Records))
	w.Header().Set("Location", "/v1/datasets/"+info.ID)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.store.List()})
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.store.Delete(id); err != nil {
		writeServiceError(w, err)
		return
	}
	s.engine.DropSession(id)
	s.engine.snaps.drop(id)
	s.sqlCatalog.forget(id)
	s.metrics.datasets.Add(-1)
	w.WriteHeader(http.StatusNoContent)
}

// appendResponse is the body of POST /v1/datasets/{id}/records.
type appendResponse struct {
	DatasetInfo
	// Added is how many records this request appended.
	Added int `json:"added"`
	// RecordIDs are the rids assigned to the appended records, in order.
	// Use them to address individual records for replace and delete.
	RecordIDs []int64 `json:"record_ids,omitempty"`
	// RepairJob is the ID of the incremental repair job this mutation
	// triggered, when the dataset has a live incremental session.
	RepairJob string `json:"repair_job,omitempty"`
}

func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	added, rids, info, err := s.store.AppendNDJSON(id, r.Body)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	s.metrics.recordsIngested.Add(int64(added))
	repair := s.engine.NotifyMutation(id, obs.RequestID(r.Context()))
	writeJSON(w, http.StatusOK, appendResponse{
		DatasetInfo: info, Added: added, RecordIDs: rids, RepairJob: repair,
	})
}

func (s *Server) handleRecordList(w http.ResponseWriter, r *http.Request) {
	items, err := s.store.ListRecords(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if items == nil {
		items = []RecordItem{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"records": items})
}

// mutationResponse is the body of PUT/DELETE /v1/datasets/{id}/records/{rid}.
type mutationResponse struct {
	DatasetInfo
	// RepairJob as in appendResponse.
	RepairJob string `json:"repair_job,omitempty"`
}

// parseRID parses the {rid} path segment.
func parseRID(r *http.Request) (int64, error) {
	rid, err := strconv.ParseInt(r.PathValue("rid"), 10, 64)
	if err != nil {
		return 0, &specError{fmt.Sprintf("invalid record id %q", r.PathValue("rid"))}
	}
	return rid, nil
}

func (s *Server) handleRecordDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rid, err := parseRID(r)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	info, err := s.store.RemoveRecord(id, rid)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	repair := s.engine.NotifyMutation(id, obs.RequestID(r.Context()))
	writeJSON(w, http.StatusOK, mutationResponse{DatasetInfo: info, RepairJob: repair})
}

func (s *Server) handleRecordReplace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rid, err := parseRID(r)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	var rec fuzzydup.Record
	if err := decodeJSON(r.Body, &rec); err != nil {
		writeServiceError(w, err)
		return
	}
	info, err := s.store.ReplaceRecord(id, rid, rec)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	repair := s.engine.NotifyMutation(id, obs.RequestID(r.Context()))
	writeJSON(w, http.StatusOK, mutationResponse{DatasetInfo: info, RepairJob: repair})
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeJSON(r.Body, &spec); err != nil {
		writeServiceError(w, err)
		return
	}
	status, err := s.engine.Submit(spec, obs.RequestID(r.Context()))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+status.ID)
	writeJSON(w, http.StatusAccepted, status)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.engine.Jobs()})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	status, err := s.engine.Status(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	result, err := s.engine.Result(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	status, err := s.engine.Cancel(r.PathValue("id"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// decodeJSON decodes a single JSON document, rejecting trailing garbage.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		var maxBytes *http.MaxBytesError
		if errors.As(err, &maxBytes) {
			return err
		}
		return &specError{fmt.Sprintf("invalid JSON body: %v", err)}
	}
	if dec.More() {
		return &specError{"trailing data after JSON body"}
	}
	return nil
}
