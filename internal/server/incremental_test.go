package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"fuzzydup"
)

// TestReconcileFollowsSnapshot drives one session through build,
// no-op, and mixed delete/insert/update snapshots, checking that the
// engine converges to each snapshot and reports one repair per applied
// operation.
func TestReconcileFollowsSnapshot(t *testing.T) {
	spec := JobSpec{Dataset: "ds-000001", Mode: "size", K: []int{3}, C: []float64{4}, Incremental: true}
	pl, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	sess := &incSession{key: solveKey{pl.prob, pl.points[0]}, spec: spec}

	recs := []fuzzydup.Record{{"alpha one"}, {"alpha onE"}, {"zebra far away"}}
	rids := []int64{1, 2, 3}
	stats, err := sess.reconcile(context.Background(), recs, rids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Op != "build" {
		t.Fatalf("build stats = %+v", stats)
	}
	if sess.inc.Len() != 3 {
		t.Fatalf("len = %d", sess.inc.Len())
	}

	// Same snapshot again: nothing to do.
	stats, err = sess.reconcile(context.Background(), recs, rids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 0 {
		t.Fatalf("idempotent reconcile applied %d ops", len(stats))
	}

	// Drop rid 2, update rid 1, append rid 4: three repairs, any order
	// of delete-then-upsert within the reconcile.
	recs2 := []fuzzydup.Record{{"alpha one two"}, {"zebra far away"}, {"new record here"}}
	rids2 := []int64{1, 3, 4}
	stats, err = sess.reconcile(context.Background(), recs2, rids2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for _, st := range stats {
		ops[st.Op]++
	}
	if ops["delete"] != 1 || ops["update"] != 1 || ops["insert"] != 1 {
		t.Fatalf("ops = %v", ops)
	}
	if sess.inc.Len() != 3 {
		t.Fatalf("len = %d after reconcile", sess.inc.Len())
	}
	for _, rid := range rids2 {
		if _, ok := sess.byRID[rid]; !ok {
			t.Fatalf("rid %d missing from session map", rid)
		}
	}
	if len(sess.byRID) != 3 {
		t.Fatalf("byRID = %v", sess.byRID)
	}
}

// submitJob posts a job spec and returns its accepted status.
func submitJob(t *testing.T, base, body string) JobStatus {
	t.Helper()
	var st JobStatus
	if code := doJSON(t, "POST", base+"/v1/jobs", "application/json", body, &st); code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", body, code)
	}
	return st
}

// batchResult runs a from-scratch batch job with the given sweep body
// and returns its result — the ground truth an incremental result must
// match, groups and representatives alike.
func batchResult(t *testing.T, base, dsID string) SweepResult {
	t.Helper()
	st := submitJob(t, base, fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4]}`, dsID))
	waitForState(t, base, st.ID, StateDone)
	var res JobResult
	if code := doJSON(t, "GET", base+"/v1/jobs/"+st.ID+"/result", "", "", &res); code != http.StatusOK {
		t.Fatalf("batch result: status %d", code)
	}
	return res.Results[0]
}

// checkMatchesBatch compares an incremental result with a batch job on
// the same dataset revision.
func checkMatchesBatch(t *testing.T, base, dsID string, got SweepResult) {
	t.Helper()
	want := batchResult(t, base, dsID)
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("incremental %v != batch %v", got.Groups, want.Groups)
	}
	if !reflect.DeepEqual(got.Representatives, want.Representatives) {
		t.Fatalf("incremental representatives %v != batch %v (groups %v)", got.Representatives, want.Representatives, got.Groups)
	}
}

// TestIncrementalJobHTTP exercises the full service flow: open an
// incremental session with a job, mutate records through the HTTP
// mutation endpoints, follow the auto-submitted repair jobs, and check
// after every step that the incremental result matches a from-scratch
// batch job on the same dataset.
func TestIncrementalJobHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	incBody := fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"incremental":true}`, dsID)

	// Opening job builds the session.
	st := submitJob(t, ts.URL, incBody)
	if st.Kind != "incremental" {
		t.Fatalf("kind = %q", st.Kind)
	}
	waitForState(t, ts.URL, st.ID, StateDone)
	var res JobResult
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", "", &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.Records != 10 || len(res.RecordIDs) != 10 || res.RecordIDs[0] != 1 {
		t.Fatalf("result records %d, rids %v", res.Records, res.RecordIDs)
	}
	assertPartition(t, res.Results[0], 10)
	checkMatchesBatch(t, ts.URL, dsID, res.Results[0])
	if s.Metrics().incrementalSessions.Value() != 1 {
		t.Fatalf("sessions = %d", s.Metrics().incrementalSessions.Value())
	}

	// repairResult follows a mutation's auto-submitted repair job and
	// checks the repaired groups and representatives against a fresh
	// batch solve.
	repairResult := func(repairJob string, wantRecords int) JobResult {
		t.Helper()
		if repairJob == "" {
			t.Fatal("mutation did not submit a repair job")
		}
		waitForState(t, ts.URL, repairJob, StateDone)
		var rr JobResult
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+repairJob+"/result", "", "", &rr); code != http.StatusOK {
			t.Fatalf("repair result: status %d", code)
		}
		if rr.Records != wantRecords {
			t.Fatalf("repair records = %d, want %d", rr.Records, wantRecords)
		}
		assertPartition(t, rr.Results[0], wantRecords)
		checkMatchesBatch(t, ts.URL, dsID, rr.Results[0])
		return rr
	}

	// Append a third member of the Doors cluster.
	var app appendResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+dsID+"/records",
		"application/x-ndjson", `["Doors","L.A. Woman"]`+"\n", &app); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if len(app.RecordIDs) != 1 || app.RecordIDs[0] != 11 {
		t.Fatalf("append rids = %v", app.RecordIDs)
	}
	rr := repairResult(app.RepairJob, 11)
	if !groupedTogether(rr.Results[0].Groups, 0, 10) {
		t.Errorf("new Doors record not grouped with row 0: %v", rr.Results[0].Groups)
	}

	// Delete one of the original Doors rows (rid 1 = snapshot row 0).
	var mut mutationResponse
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+dsID+"/records/1", "", "", &mut); code != http.StatusOK {
		t.Fatalf("delete record: status %d", code)
	}
	repairResult(mut.RepairJob, 10)

	// Replace the Coltrane row (rid 8) with a near-duplicate of the
	// Stevie Wonder row.
	if code := doJSON(t, "PUT", ts.URL+"/v1/datasets/"+dsID+"/records/8",
		"application/json", `["Stevie Wonder","Innervision"]`, &mut); code != http.StatusOK {
		t.Fatalf("replace record: status %d", code)
	}
	repairResult(mut.RepairJob, 10)

	if got := s.Metrics().repairsRun.Value(); got < 3 {
		t.Errorf("repairs_run = %d, want >= 3", got)
	}

	// Delete the Miles Davis row (rid 7), then append a second copy of the
	// replaced row: the append reuses a freed engine slot smaller than its
	// group mates', so slot order and dataset order disagree, and the
	// representative must still follow dataset order as a batch job's does.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+dsID+"/records/7", "", "", &mut); code != http.StatusOK {
		t.Fatalf("delete record: status %d", code)
	}
	repairResult(mut.RepairJob, 9)
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+dsID+"/records",
		"application/x-ndjson", `["Stevie Wonder","Innervision"]`+"\n", &app); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	repairResult(app.RepairJob, 10)

	// Mutating a rid that never existed is a 404.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+dsID+"/records/999", "", "", nil); code != http.StatusNotFound {
		t.Errorf("delete missing rid: status %d", code)
	}
	// A malformed rid is a 400.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+dsID+"/records/abc", "", "", nil); code != http.StatusBadRequest {
		t.Errorf("delete bad rid: status %d", code)
	}

	// Listing exposes rids for addressing.
	var listed struct {
		Records []RecordItem `json:"records"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/"+dsID+"/records", "", "", &listed); code != http.StatusOK {
		t.Fatalf("list records: status %d", code)
	}
	if len(listed.Records) != 10 || listed.Records[0].RID != 2 {
		t.Fatalf("listed = %v", listed.Records)
	}

	// Deleting the dataset drops its session.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+dsID, "", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete dataset: status %d", code)
	}
	if s.Metrics().incrementalSessions.Value() != 0 {
		t.Errorf("sessions = %d after dataset delete", s.Metrics().incrementalSessions.Value())
	}
}

// TestIncrementalSpecValidation pins the submission-time rejections of
// specs an incremental session cannot serve.
func TestIncrementalSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	dsID := createSeedDataset(t, ts.URL)

	cases := map[string]string{
		"sweep":         fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3,2],"c":[4],"incremental":true}`, dsID),
		"corpus metric": fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"metric":"cosine","incremental":true}`, dsID),
		"index":         fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"index":"qgram","incremental":true}`, dsID),
		"sql":           fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"use_sql":true,"incremental":true}`, dsID),
	}
	for name, body := range cases {
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}
