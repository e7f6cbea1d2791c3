package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"fuzzydup/internal/durable"
)

// newDurableServer builds a server persisting to dir. Fsync stays off:
// these tests crash the process simulation, not the host.
func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{Workers: 2, Logger: testLogger(t), DataDir: dir, NoFsync: true})
}

// getBody fetches a URL and returns its raw body (for bit-for-bit
// comparisons across a restart).
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "", "", &st); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// mutateFixture drives a representative mutation history over HTTP:
// two datasets (one later deleted), appends, a replace, a record
// delete, a finished batch job, and a finished incremental job.
func mutateFixture(t *testing.T, ts *httptest.Server) (dsID, batchJob, incJob string) {
	t.Helper()
	var info DatasetInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json",
		`{"name":"people","records":[["John Smith","Oak St"],["Jon Smith","Oak Street"],["Alice Jones","Elm Ave"]]}`,
		&info); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	dsID = info.ID

	var doomed DatasetInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json",
		`{"name":"doomed","records":[["x"]]}`, &doomed); code != http.StatusCreated {
		t.Fatalf("create doomed: %d", code)
	}

	var app appendResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+dsID+"/records", "application/x-ndjson",
		"[\"Jhon Smith\",\"Oak St.\"]\n[\"Bob Brown\",\"Pine Rd\"]\n", &app); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if len(app.RecordIDs) != 2 {
		t.Fatalf("append rids: %v", app.RecordIDs)
	}
	var mut mutationResponse
	if code := doJSON(t, "PUT", fmt.Sprintf("%s/v1/datasets/%s/records/%d", ts.URL, dsID, app.RecordIDs[0]),
		"application/json", `["John Smyth","Oak St."]`, &mut); code != http.StatusOK {
		t.Fatalf("replace: %d", code)
	}
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/datasets/%s/records/%d", ts.URL, dsID, app.RecordIDs[1]),
		"", "", &mut); code != http.StatusOK {
		t.Fatalf("record delete: %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+doomed.ID, "", "", nil); code != http.StatusNoContent {
		t.Fatalf("dataset delete: %d", code)
	}

	var st JobStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q,"k":[3,2]}`, dsID), &st); code != http.StatusAccepted {
		t.Fatalf("submit batch: %d", code)
	}
	batchJob = st.ID
	if got := waitDone(t, ts, batchJob); got.State != StateDone {
		t.Fatalf("batch job: %s (%s)", got.State, got.Error)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q,"incremental":true}`, dsID), &st); code != http.StatusAccepted {
		t.Fatalf("submit incremental: %d", code)
	}
	incJob = st.ID
	if got := waitDone(t, ts, incJob); got.State != StateDone {
		t.Fatalf("incremental job: %s (%s)", got.State, got.Error)
	}
	return dsID, batchJob, incJob
}

// TestCrashRecoveryBitForBit is the crash-injection acceptance test:
// everything ingested and computed over HTTP must survive a simulated
// SIGKILL bit-for-bit — records with their rids, dataset listings, and
// retained job results.
func TestCrashRecoveryBitForBit(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	dsID, batchJob, incJob := mutateFixture(t, ts)

	paths := []string{
		"/v1/datasets",
		"/v1/datasets/" + dsID,
		"/v1/datasets/" + dsID + "/records",
		"/v1/jobs/" + batchJob + "/result",
		"/v1/jobs/" + incJob + "/result",
	}
	before := make(map[string]string, len(paths))
	for _, p := range paths {
		code, body := getBody(t, ts.URL+p)
		if code != http.StatusOK {
			t.Fatalf("pre-crash GET %s: %d", p, code)
		}
		before[p] = body
	}

	s.db.Crash() // simulated SIGKILL: no flush, no goodbye

	_, ts2 := newDurableServer(t, dir)
	for _, p := range paths {
		code, body := getBody(t, ts2.URL+p)
		if code != http.StatusOK {
			t.Fatalf("post-crash GET %s: %d", p, code)
		}
		if body != before[p] {
			t.Errorf("GET %s changed across crash:\n before: %s\n after:  %s", p, before[p], body)
		}
	}
}

// TestCleanRestartKeepsAckedMutations is the graceful-drain guarantee:
// a clean Shutdown flushes and fsyncs the pending WAL batch, so every
// acknowledged mutation — including ones still sitting in the group
// commit buffer — survives a restart.
func TestCleanRestartKeepsAckedMutations(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Logger: testLogger(t), DataDir: dir, NoFsync: true}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	var info DatasetInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json",
		`{"records":[["a"],["b"]]}`, &info); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var app appendResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+info.ID+"/records", "application/x-ndjson",
		"[\"c\"]\n", &app); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	_, recordsBefore := getBody(t, ts.URL+"/v1/datasets/"+info.ID+"/records")
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	_, ts2 := newDurableServer(t, dir)
	code, recordsAfter := getBody(t, ts2.URL+"/v1/datasets/"+info.ID+"/records")
	if code != http.StatusOK || recordsAfter != recordsBefore {
		t.Fatalf("records after clean restart: %d\n before: %s\n after:  %s", code, recordsBefore, recordsAfter)
	}
}

// TestRestartNeverReusesIDs: dataset and job IDs minted before a crash
// must not be re-minted after it, even when their owners were deleted.
func TestRestartNeverReusesIDs(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	var a, b DatasetInfo
	doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json", `{"records":[["x"]]}`, &a)
	doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json", `{"records":[["y"]]}`, &b)
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+b.ID, "", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	s.db.Crash()

	_, ts2 := newDurableServer(t, dir)
	var c DatasetInfo
	if code := doJSON(t, "POST", ts2.URL+"/v1/datasets", "application/json", `{"records":[["z"]]}`, &c); code != http.StatusCreated {
		t.Fatalf("create after restart: %d", code)
	}
	if c.ID == a.ID || c.ID == b.ID {
		t.Fatalf("restart re-minted dataset ID %s (existing %s, deleted %s)", c.ID, a.ID, b.ID)
	}
}

// TestJobForgetSurvivesRestart: deleting a finished job's result is
// itself durable.
func TestJobForgetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	dsID, batchJob, incJob := mutateFixture(t, ts)
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+batchJob, "", "", nil); code != http.StatusOK {
		t.Fatalf("forget: %d", code)
	}
	s.db.Crash()

	_, ts2 := newDurableServer(t, dir)
	if code, _ := getBody(t, ts2.URL+"/v1/jobs/"+batchJob); code != http.StatusNotFound {
		t.Errorf("forgotten job after restart: %d, want 404", code)
	}
	if code, _ := getBody(t, ts2.URL+"/v1/jobs/"+incJob); code != http.StatusOK {
		t.Errorf("retained job after restart: %d, want 200", code)
	}
	// A fresh job on the recovered dataset gets a fresh ID.
	var st JobStatus
	if code := doJSON(t, "POST", ts2.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q}`, dsID), &st); code != http.StatusAccepted {
		t.Fatalf("submit after restart: %d", code)
	}
	if st.ID == batchJob || st.ID == incJob {
		t.Errorf("restart re-minted job ID %s", st.ID)
	}
}

// TestIncrementalSessionRebuildsAfterCrash: incremental sessions are
// in-memory state rebuilt on demand — after a crash the first
// incremental job reconciles against the recovered store and mutations
// keep triggering repair jobs.
func TestIncrementalSessionRebuildsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	dsID, _, incJob := mutateFixture(t, ts)
	var before JobResult
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+incJob+"/result", "", "", &before); code != http.StatusOK {
		t.Fatalf("pre-crash result: %d", code)
	}
	s.db.Crash()

	_, ts2 := newDurableServer(t, dir)
	var st JobStatus
	if code := doJSON(t, "POST", ts2.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q,"incremental":true}`, dsID), &st); code != http.StatusAccepted {
		t.Fatalf("submit incremental: %d", code)
	}
	if got := waitDone(t, ts2, st.ID); got.State != StateDone {
		t.Fatalf("rebuild job: %s (%s)", got.State, got.Error)
	}
	var after JobResult
	if code := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+st.ID+"/result", "", "", &after); code != http.StatusOK {
		t.Fatalf("post-crash result: %d", code)
	}
	// The rebuilt session sees the identical store, so the partition and
	// rid mapping match the pre-crash session's.
	if fmt.Sprint(after.Results) != fmt.Sprint(before.Results) || fmt.Sprint(after.RecordIDs) != fmt.Sprint(before.RecordIDs) {
		t.Errorf("incremental result diverged across crash:\n before: %+v %v\n after:  %+v %v",
			before.Results, before.RecordIDs, after.Results, after.RecordIDs)
	}

	// Mutations on the recovered dataset still trigger repair jobs.
	var app appendResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/datasets/"+dsID+"/records", "application/x-ndjson",
		"[\"New Person\",\"New St\"]\n", &app); code != http.StatusOK {
		t.Fatalf("append after rebuild: %d", code)
	}
	if app.RepairJob == "" {
		t.Fatal("mutation after session rebuild triggered no repair job")
	}
	if got := waitDone(t, ts2, app.RepairJob); got.State != StateDone {
		t.Fatalf("repair job: %s (%s)", got.State, got.Error)
	}
}

// TestRestoreTrustsCommittedSpecs: restore does not validate a committed
// job's spec again. A done job whose spec newer rules reject (an unknown
// agg, which older servers accepted and solved as max) still comes back
// after a restart.
func TestRestoreTrustsCommittedSpecs(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableServer(t, dir)
	pj := persistedJob{
		ID: "job-000007",
		Spec: JobSpec{Dataset: "ds-000001", Mode: "size", Metric: "ed", Agg: "median", Index: "exact",
			K: []int{3}, Theta: []float64{0.3}, C: []float64{4}},
		Records: 1,
		Done:    1,
		Results: []SweepResult{{K: 3, C: 4, Groups: [][]int{{0}}, Duplicates: [][]int{}, Pairs: [][2]int{}, Representatives: []int{0}}},
	}
	payload, err := json.Marshal(pj)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.db.AppendSync(&durable.JobCommit{ID: pj.ID, Counter: 7, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	s.db.Crash()

	_, ts := newDurableServer(t, dir)
	var st JobStatus
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+pj.ID, "", "", &st); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("restored job: status %d, %+v", code, st)
	}
	var res JobResult
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+pj.ID+"/result", "", "", &res); code != http.StatusOK ||
		fmt.Sprint(res.Results) != fmt.Sprint(pj.Results) {
		t.Fatalf("restored result: status %d, %+v", code, res.Results)
	}
}

// TestDurableHealthAndMetrics: the health payloads advertise durability
// and the WAL counters move.
func TestDurableHealthAndMetrics(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir)
	var out map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", "", &out); code != http.StatusOK || out["durable"] != true {
		t.Errorf("healthz: %d %v", code, out)
	}
	if code := doJSON(t, "GET", ts.URL+"/readyz", "", "", &out); code != http.StatusOK || out["durable"] != true {
		t.Errorf("readyz: %d %v", code, out)
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json", `{"records":[["a"]]}`, nil)
	if n := s.Metrics().walAppends.Value(); n == 0 {
		t.Error("wal_appends did not move")
	}
	if n := s.Metrics().walBytes.Value(); n == 0 {
		t.Error("wal_bytes did not move")
	}
}

// TestRecoveryFailsOnBadDataDir: a data dir path that is a file fails
// construction instead of serving partial data.
func TestRecoveryFailsOnBadDataDir(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/file"
	if err := os.WriteFile(bad, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workers: 1, Logger: testLogger(t), DataDir: bad}); err == nil {
		t.Fatal("New succeeded with a file as data dir")
	}
}
