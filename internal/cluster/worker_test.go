package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fuzzydup/internal/core"
)

func solveBody(t *testing.T, ds Dataset, records []string, params Params) []byte {
	t.Helper()
	ids := make([]int, len(records))
	for i := range ids {
		ids[i] = i
	}
	body, err := json.Marshal(SolveRequest{
		Dataset:  ds.ID,
		Revision: ds.Revision,
		BlockKey: BlockKey(ds, ids),
		Params:   params,
		Records:  records,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postSolve(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+SolvePath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func edProblem() core.Problem {
	return core.Problem{Cut: core.Cut{MaxSize: 3}, C: 3}
}

func TestWorkerSolveAndCache(t *testing.T) {
	w := NewWorker(testLogger(t), 0)
	var counted atomic.Int64
	w.CountDistances = func(n int64) { counted.Add(n) }
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+SolvePath, w.HandleSolve)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	url := ts.URL
	params := ParamsFor("ed", edProblem())
	records := []string{"kettlebridge", "kettlebrldge", "kettlebridg", "parliamentary"}
	body := solveBody(t, Dataset{ID: "ds", Revision: 1}, records, params)

	code, raw := postSolve(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, raw)
	}
	var first SolveResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || len(first.Rel.Rows) != len(records) {
		t.Fatalf("first solve: cached=%v rows=%d", first.Cached, len(first.Rel.Rows))
	}
	if w.Solves.Load() != 1 || w.CacheHits.Load() != 0 {
		t.Fatalf("counters after first solve: solves=%d hits=%d", w.Solves.Load(), w.CacheHits.Load())
	}
	if w.SolveDuration.Count() != 1 {
		t.Errorf("SolveDuration count = %d", w.SolveDuration.Count())
	}
	// The response forwards the certified scan's counters, and the solve's
	// distance work (kernel verifications plus metric calls) is counted.
	if first.Lookups != int64(len(records)) || first.Candidates == 0 {
		t.Errorf("first solve's phase-1 counters: %+v", first)
	}
	calls := counted.Load()
	if calls < first.Candidates {
		t.Errorf("counted %d distance calls, fewer than the %d kernel verifications", calls, first.Candidates)
	}

	// The identical request replays from the idempotency cache.
	_, raw = postSolve(t, url, body)
	var second SolveResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("replay not marked cached")
	}
	if !reflect.DeepEqual(first.Groups, second.Groups) || !reflect.DeepEqual(first.Rel, second.Rel) {
		t.Error("replayed result differs from the original")
	}
	if w.Solves.Load() != 1 || w.CacheHits.Load() != 1 {
		t.Fatalf("counters after replay: solves=%d hits=%d", w.Solves.Load(), w.CacheHits.Load())
	}
	if second.Candidates != first.Candidates || counted.Load() != calls {
		t.Errorf("replay: candidates %d (first %d), counted %d distance calls (first %d)",
			second.Candidates, first.Candidates, counted.Load(), calls)
	}

	// The same block under different parameters is a distinct solve: the
	// cache key carries the parameter fingerprint.
	p2 := params
	p2.C = 5
	if code, raw := postSolve(t, url, solveBody(t, Dataset{ID: "ds", Revision: 1}, records, p2)); code != http.StatusOK {
		t.Fatalf("param variant: status %d: %s", code, raw)
	}
	if w.Solves.Load() != 2 {
		t.Errorf("param variant served from cache: solves=%d", w.Solves.Load())
	}
}

func TestWorkerCacheEviction(t *testing.T) {
	w := NewWorker(testLogger(t), 2) // room for two blocks
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+SolvePath, w.HandleSolve)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	params := ParamsFor("ed", edProblem())
	bodies := make([][]byte, 3)
	for i := range bodies {
		records := []string{fmt.Sprintf("record-%d-alpha", i), fmt.Sprintf("record-%d-alphb", i)}
		bodies[i] = solveBody(t, Dataset{ID: "evict", Revision: int64(i)}, records, params)
		if code, raw := postSolve(t, ts.URL, bodies[i]); code != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", i, code, raw)
		}
	}
	// Block 0 was evicted FIFO; re-requesting it recomputes.
	if _, raw := postSolve(t, ts.URL, bodies[0]); false {
		_ = raw
	}
	if w.Solves.Load() != 4 {
		t.Errorf("solves = %d after FIFO eviction replay, want 4", w.Solves.Load())
	}
	// Block 2 is still cached.
	postSolve(t, ts.URL, bodies[2])
	if w.CacheHits.Load() != 1 {
		t.Errorf("cache hits = %d, want 1", w.CacheHits.Load())
	}
}

func TestWorkerSolveRejections(t *testing.T) {
	_, urls := startWorkers(t, 1)
	url := urls[0]
	good := ParamsFor("ed", edProblem())

	type tc struct {
		name string
		body []byte
		code string
	}
	cases := []tc{
		{"invalid json", []byte("not json"), "bad_spec"},
		{"missing block key", mustJSON(SolveRequest{Records: []string{"a"}, Params: good}), "bad_spec"},
		{"no records", mustJSON(SolveRequest{BlockKey: "k", Params: good}), "bad_spec"},
	}
	badMetric := good
	badMetric.Metric = "no-such-metric"
	cases = append(cases, tc{"unknown metric", mustJSON(SolveRequest{BlockKey: "k", Records: []string{"a"}, Params: badMetric}), "bad_spec"})
	corpusDep := good
	corpusDep.Metric = "fms"
	cases = append(cases, tc{"corpus-dependent metric", mustJSON(SolveRequest{BlockKey: "k", Records: []string{"a"}, Params: corpusDep}), "bad_spec"})
	badAgg := good
	badAgg.Agg = "median"
	cases = append(cases, tc{"unknown agg", mustJSON(SolveRequest{BlockKey: "k", Records: []string{"a"}, Params: badAgg}), "bad_spec"})

	for _, c := range cases {
		code, raw := postSolve(t, url, c.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != c.code {
			t.Errorf("%s: error body %s", c.name, raw)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func TestWorkerDrain(t *testing.T) {
	workers, urls := startWorkers(t, 1)
	w, url := workers[0], urls[0]
	if w.Draining() {
		t.Fatal("fresh worker draining")
	}
	w.BeginDrain()
	w.BeginDrain() // idempotent
	if !w.Draining() {
		t.Fatal("BeginDrain did not stick")
	}

	body := solveBody(t, Dataset{ID: "drain", Revision: 1}, []string{"alpha", "alphb"}, ParamsFor("ed", edProblem()))
	code, raw := postSolve(t, url, body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining solve: status %d: %s", code, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error.Code != "draining" {
		t.Errorf("draining error body: %s", raw)
	}
	if w.Rejected.Load() != 1 {
		t.Errorf("rejected = %d, want 1", w.Rejected.Load())
	}
	// Nothing in flight: Wait returns immediately.
	done := make(chan struct{})
	go func() { w.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung with no in-flight solves")
	}
}

// TestRegistrarLifecycle drives the worker-side announce loop against a
// live coordinator: register on start, heartbeats keep it alive, and
// Deregister removes it immediately.
func TestRegistrarLifecycle(t *testing.T) {
	c := NewCoordinator(fastConfig(t))
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RegisterPath, c.HandleRegister)
	mux.HandleFunc("POST "+HeartbeatPath, c.HandleHeartbeat)
	mux.HandleFunc("POST "+DeregisterPath, c.HandleDeregister)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	g := &Registrar{
		Coordinators: []string{ts.URL, "http://127.0.0.1:1"}, // second is unreachable: logged, not fatal
		Self:         "http://worker-1",
		Every:        10 * time.Millisecond,
		Logger:       testLogger(t),
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); g.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for c.WorkersAlive() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Worker != "http://worker-1" || ws[0].Static {
		t.Fatalf("registered worker = %+v", ws)
	}

	// Heartbeats keep arriving after the initial registration.
	before := ws[0].LastBeatAgeSeconds
	time.Sleep(50 * time.Millisecond)
	if again := c.Workers(); len(again) != 1 || again[0].LastBeatAgeSeconds > 1 {
		t.Errorf("heartbeats stalled: %+v (initial age %v)", again, before)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
	g.Deregister()
	if got := len(c.Workers()); got != 0 {
		t.Errorf("%d workers after Deregister, want 0", got)
	}
}
