package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a Server plus an httptest front end, wired for
// cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(&logWriter{t}, nil))
}

type logWriter struct{ t *testing.T }

func (w *logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// doJSON performs a request with an optional raw body and decodes the
// JSON response into out (when non-nil), returning the status code.
func doJSON(t *testing.T, method, url, contentType, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// seedNDJSON is a small relation with three obvious duplicate pairs
// (rows 0/1, 2/3, 4/5) and four distinct singletons, as NDJSON lines.
const seedNDJSON = `["The Doors","LA Woman"]
["Doors","LA Woman"]

["Led Zeppelin","Houses of the Holy"]
["Led Zeppellin","Houses of the Holy"]
["Aaliyah","Are You Ready"]
["Aaliyah","Are You Ready?"]
["Miles Davis","Kind of Blue"]
["John Coltrane","Giant Steps"]
["Joni Mitchell","Blue"]
["Stevie Wonder","Innervisions"]
`

// createSeedDataset registers an empty dataset and streams seedNDJSON
// into it, returning the dataset ID.
func createSeedDataset(t *testing.T, base string) string {
	t.Helper()
	var info DatasetInfo
	if code := doJSON(t, "POST", base+"/v1/datasets", "application/json",
		`{"name":"tracks"}`, &info); code != http.StatusCreated {
		t.Fatalf("create dataset: status %d", code)
	}
	var app appendResponse
	if code := doJSON(t, "POST", base+"/v1/datasets/"+info.ID+"/records",
		"application/x-ndjson", seedNDJSON, &app); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if app.Added != 10 || app.Records != 10 {
		t.Fatalf("append: added %d, total %d, want 10, 10", app.Added, app.Records)
	}
	return info.ID
}

// waitForState polls a job until it reaches want (fatal on a terminal
// state that is not want, or on timeout).
func waitForState(t *testing.T, base, jobID string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st JobStatus
		if code := doJSON(t, "GET", base+"/v1/jobs/"+jobID, "", "", &st); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", jobID, code)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", jobID, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", jobID, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)

	// Submit a 2-point K sweep; the widest point computes phase 1 once
	// and the narrower point reuses it.
	var st JobStatus
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3,2],"c":[4]}`, dsID), &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.State != StateQueued || st.Sweep.Total != 2 {
		t.Fatalf("submit: %+v", st)
	}

	final := waitForState(t, ts.URL, st.ID, StateDone)
	if final.Sweep.Done != 2 {
		t.Errorf("sweep done = %d, want 2", final.Sweep.Done)
	}

	var res JobResult
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", "", &res); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if res.Records != 10 || len(res.Results) != 2 {
		t.Fatalf("result: %d records, %d sweep points", res.Records, len(res.Results))
	}
	// Results come back in request order: k=3 then k=2.
	if res.Results[0].K != 3 || res.Results[1].K != 2 {
		t.Errorf("sweep order: k = %d, %d", res.Results[0].K, res.Results[1].K)
	}
	for _, r := range res.Results {
		assertPartition(t, r, 10)
		if len(r.Duplicates) == 0 {
			t.Errorf("k=%d: no duplicate groups found", r.K)
		}
		if !groupedTogether(r.Groups, 0, 1) {
			t.Errorf("k=%d: rows 0 and 1 (The Doors / Doors) not grouped: %v", r.K, r.Groups)
		}
	}

	// The sweep must have hit the phase-1 cache.
	if hits := s.Metrics().cacheHits.Value(); hits < 1 {
		t.Errorf("phase1 cache hits = %d, want >= 1", hits)
	}
}

// assertPartition checks that a sweep result is a true partition of
// 0..n-1 and its representatives are members of their groups.
func assertPartition(t *testing.T, r SweepResult, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, g := range r.Groups {
		for _, id := range g {
			if id < 0 || id >= n || seen[id] {
				t.Fatalf("bad partition: %v", r.Groups)
			}
			seen[id] = true
		}
	}
	for _, ok := range seen {
		if !ok {
			t.Fatalf("partition misses records: %v", r.Groups)
		}
	}
	if len(r.Representatives) != len(r.Groups) {
		t.Fatalf("%d representatives for %d groups", len(r.Representatives), len(r.Groups))
	}
	for i, rep := range r.Representatives {
		found := false
		for _, id := range r.Groups[i] {
			if id == rep {
				found = true
			}
		}
		if !found {
			t.Errorf("representative %d not in group %v", rep, r.Groups[i])
		}
	}
}

func groupedTogether(groups [][]int, a, b int) bool {
	for _, g := range groups {
		hasA, hasB := false, false
		for _, id := range g {
			hasA = hasA || id == a
			hasB = hasB || id == b
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)

	var st JobStatus
	doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q,"k":[3,2]}`, dsID), &st)
	waitForState(t, ts.URL, st.ID, StateDone)

	var m map[string]any
	if code := doJSON(t, "GET", ts.URL+"/metrics", "", "", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for key, min := range map[string]float64{
		"jobs_queued":       1,
		"jobs_done":         1,
		"records_ingested":  10,
		"datasets":          1,
		"phase1_cache_hits": 1,
	} {
		v, ok := m[key].(float64)
		if !ok || v < min {
			t.Errorf("metrics[%s] = %v, want >= %g", key, m[key], min)
		}
	}
	eps, ok := m["endpoints"].(map[string]any)
	if !ok || len(eps) == 0 {
		t.Fatalf("metrics endpoints = %v", m["endpoints"])
	}
	// IDs collapse to a bounded label set.
	if _, ok := eps["GET /v1/jobs/{id}"]; !ok {
		t.Errorf("no normalized job-status endpoint label: %v", eps)
	}
	ep := eps["POST /v1/jobs"].(map[string]any)
	if ep["count"].(float64) < 1 {
		t.Errorf("POST /v1/jobs count = %v", ep["count"])
	}
}

func TestConcurrentJobsAndCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})

	// Every job parks at its first sweep point until released (or its
	// context is cancelled) so the test controls the overlap.
	release := make(chan struct{})
	s.engine.testBeforeSolve = func(ctx context.Context, id string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	dsID := createSeedDataset(t, ts.URL)
	var ids []string
	for i := 0; i < 4; i++ {
		var st JobStatus
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
			fmt.Sprintf(`{"dataset":%q,"k":[3],"c":[4,3]}`, dsID), &st); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}

	// All four must be running simultaneously.
	for _, id := range ids {
		waitForState(t, ts.URL, id, StateRunning)
	}
	if n := s.Metrics().jobsRunning.Value(); n != 4 {
		t.Errorf("jobs_running gauge = %d, want 4", n)
	}

	// Cancel one mid-flight; its parked hook unblocks via ctx.
	victim := ids[3]
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+victim, "", "", nil); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	waitForState(t, ts.URL, victim, StateCancelled)

	// A cancelled job has no result.
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+victim+"/result", "", "", nil); code != http.StatusConflict {
		t.Errorf("cancelled result: status %d, want 409", code)
	}

	// Release the survivors; all three finish with real results.
	close(release)
	var wg sync.WaitGroup
	for _, id := range ids[:3] {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			waitForState(t, ts.URL, id, StateDone)
		}(id)
	}
	wg.Wait()
	for _, id := range ids[:3] {
		var res JobResult
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "", "", &res); code != http.StatusOK {
			t.Fatalf("result %s: status %d", id, code)
		}
		if len(res.Results) != 2 {
			t.Errorf("%s: %d sweep points, want 2", id, len(res.Results))
		}
	}

	if n := s.Metrics().jobsCancelled.Value(); n != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", n)
	}
	if n := s.Metrics().jobsDone.Value(); n != 3 {
		t.Errorf("jobs_done = %d, want 3", n)
	}
}

func TestQueueBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	hold := make(chan struct{})
	s.engine.testBeforeSolve = func(ctx context.Context, id string) {
		select {
		case <-hold:
		case <-ctx.Done():
		}
	}
	defer close(hold)

	dsID := createSeedDataset(t, ts.URL)
	submit := func() (int, JobStatus) {
		var st JobStatus
		code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
			fmt.Sprintf(`{"dataset":%q}`, dsID), &st)
		return code, st
	}

	// First job occupies the worker; wait until it is actually running
	// so the queue slot is free again.
	code, st := submit()
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	waitForState(t, ts.URL, st.ID, StateRunning)
	// Second fills the one queue slot, third must bounce with 503.
	if code, _ = submit(); code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", code)
	}
	var errResp errorBody
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(fmt.Sprintf(`{"dataset":%q}`, dsID)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit 3: %d, want 503", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil || errResp.Error.Code != "unavailable" {
		t.Errorf("error body: %+v, %v", errResp, err)
	}
}

func TestGracefulShutdownDrainsRunningJob(t *testing.T) {
	cfg := Config{Workers: 2, Logger: testLogger(t)}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dsID := createSeedDataset(t, ts.URL)
	var st JobStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q,"k":[4,3,2]}`, dsID), &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// Generous deadline: the in-flight job must finish, not be killed.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got, err := s.engine.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Errorf("after drain, job state = %s (error %q), want done", got.State, got.Error)
	}

	// Submissions after shutdown are rejected.
	if _, err := s.engine.Submit(JobSpec{Dataset: dsID}, ""); err != errShuttingDown {
		t.Errorf("submit after shutdown: %v", err)
	}

	// Every job has left the gauge: drain returns it to zero.
	if n := s.Metrics().jobsRunning.Value(); n != 0 {
		t.Errorf("jobs_running after drain = %d, want 0", n)
	}
}

func TestGracefulShutdownCancelsAtDeadline(t *testing.T) {
	s, err := New(Config{Workers: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The job parks until its context is cancelled: it can only end via
	// the drain deadline's cancellation.
	s.engine.testBeforeSolve = func(ctx context.Context, id string) { <-ctx.Done() }

	dsID := createSeedDataset(t, ts.URL)
	var st JobStatus
	doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(`{"dataset":%q}`, dsID), &st)
	waitForState(t, ts.URL, st.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %s after deadline-forced cancellation", elapsed)
	}
	got, err := s.engine.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Errorf("after forced drain, job state = %s, want cancelled", got.State)
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20, MaxRecords: 12})
	dsID := createSeedDataset(t, ts.URL)

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"bad json", "POST", "/v1/datasets", `{not json`, 400, "bad_spec"},
		{"unknown dataset job", "POST", "/v1/jobs", `{"dataset":"ds-999999"}`, 404, "not_found"},
		{"missing dataset field", "POST", "/v1/jobs", `{}`, 400, "bad_spec"},
		{"bad metric", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"metric":"nope"}`, dsID), 400, "bad_spec"},
		{"bad mode", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"mode":"nope"}`, dsID), 400, "bad_spec"},
		{"bad k", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"k":[1]}`, dsID), 400, "bad_spec"},
		{"bad c", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"c":[0.5]}`, dsID), 400, "bad_spec"},
		{"bad theta", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"mode":"diameter","theta":[2]}`, dsID), 400, "bad_spec"},
		{"bad agg", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"agg":"median"}`, dsID), 400, "bad_spec"},
		{"negative p", "POST", "/v1/jobs", fmt.Sprintf(`{"dataset":%q,"p":-1}`, dsID), 400, "bad_spec"},
		{"malformed ndjson", "POST", "/v1/datasets/" + dsID + "/records", `["ok"]` + "\n" + `{broken`, 400, "bad_record"},
		{"empty record line", "POST", "/v1/datasets/" + dsID + "/records", `[]`, 400, "bad_record"},
		{"dataset cap", "POST", "/v1/datasets/" + dsID + "/records", strings.Repeat("[\"x y z\"]\n", 5), 413, "dataset_cap"},
		{"unknown job status", "GET", "/v1/jobs/job-999999", "", 404, "not_found"},
		{"unknown job result", "GET", "/v1/jobs/job-999999/result", "", 404, "not_found"},
		{"unknown dataset delete", "DELETE", "/v1/datasets/ds-999999", "", 404, "not_found"},
		{"unknown route", "GET", "/v2/nope", "", 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body errorBody
			code := doJSON(t, tc.method, ts.URL+tc.path, "application/json", tc.body, &body)
			if code != tc.wantStatus || body.Error.Code != tc.wantCode {
				t.Errorf("%s %s: got %d %q (%q), want %d %q",
					tc.method, tc.path, code, body.Error.Code, body.Error.Message, tc.wantStatus, tc.wantCode)
			}
		})
	}

	// A failed append must not partially commit.
	var info DatasetInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/"+dsID, "", "", &info); code != 200 {
		t.Fatalf("get dataset: %d", code)
	}
	if info.Records != 10 {
		t.Errorf("dataset has %d records after rejected appends, want 10", info.Records)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256})
	var body errorBody
	big := `{"name":"` + strings.Repeat("x", 1024) + `"}`
	code := doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json", big, &body)
	if code != http.StatusRequestEntityTooLarge || body.Error.Code != "body_too_large" {
		t.Errorf("oversized body: %d %q", code, body.Error.Code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var out map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", "", &out); code != 200 || out["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, out)
	}
	if durable, ok := out["durable"].(bool); !ok || durable {
		t.Errorf("healthz durable = %v, want false without a data dir", out["durable"])
	}
}

func TestDatasetLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Create with an inline record batch.
	var info DatasetInfo
	code := doJSON(t, "POST", ts.URL+"/v1/datasets", "application/json",
		`{"name":"inline","records":[["a","b"],["c"]]}`, &info)
	if code != http.StatusCreated || info.Records != 2 {
		t.Fatalf("create: %d %+v", code, info)
	}

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets", "", "", &list); code != 200 || len(list.Datasets) != 1 {
		t.Fatalf("list: %d %+v", code, list)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/datasets/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/datasets/"+info.ID, "", "", nil); code != http.StatusNotFound {
		t.Errorf("get after delete: %d", code)
	}
}
