package server

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"fuzzydup/internal/obs/promtext"
)

// scrapeProm fetches the Prometheus exposition and lints it with the
// strict parser, failing the test on any violation. This test doubles as
// the CI scrape-lint gate.
func scrapeProm(t *testing.T, base string) map[string]promtext.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, promtext.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := promtext.Parse(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("strict parse rejected exposition: %v\n%s", err, body)
	}
	byName := make(map[string]promtext.Family, len(families))
	for _, f := range families {
		byName[f.Name] = f
	}
	return byName
}

// TestPromExposition populates the metrics through real traffic (a full
// job, point queries, list requests), scrapes the text exposition, and
// lints it strictly: valid syntax, no duplicate series, monotone
// cumulative buckets, and every key family present with sane values.
func TestPromExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	id := createSeedDataset(t, ts.URL)
	runJob(t, ts.URL, `{"dataset":"`+id+`","k":[3],"c":[4]}`)
	var qr queryResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+id+"/query",
		"application/json", `{"record":["Doors","LA Woman"]}`, &qr); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	doJSON(t, "GET", ts.URL+"/v1/jobs", "", "", nil)

	fams := scrapeProm(t, ts.URL)

	counter := func(name string) float64 {
		t.Helper()
		f, ok := fams[name]
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		var total float64
		for _, s := range f.Samples {
			total += s.Value
		}
		return total
	}
	if got := counter("dedupd_jobs_done_total"); got != 1 {
		t.Errorf("jobs_done = %g, want 1", got)
	}
	if got := counter("dedupd_queries_total"); got != 1 {
		t.Errorf("queries = %g, want 1", got)
	}
	if got := counter("dedupd_records_ingested_total"); got != 10 {
		t.Errorf("records_ingested = %g, want 10", got)
	}
	if got := counter("dedupd_distance_calls_total"); got <= 0 {
		t.Errorf("distance_calls = %g, want > 0", got)
	}

	// Labeled families: job kind histogram carries both kinds, the batch
	// one holding the run; HTTP families label by mux pattern.
	jobHist := fams["dedupd_job_duration_ms"]
	var batchCount, incCount float64
	for _, s := range jobHist.Samples {
		if s.Name == "dedupd_job_duration_ms_count" {
			switch s.Labels["kind"] {
			case "batch":
				batchCount = s.Value
			case "incremental":
				incCount = s.Value
			}
		}
	}
	if batchCount != 1 || incCount != 0 {
		t.Errorf("job_duration counts: batch=%g incremental=%g, want 1, 0", batchCount, incCount)
	}
	var sawQueryEndpoint bool
	for _, s := range fams["dedupd_http_requests_total"].Samples {
		if s.Labels["endpoint"] == "POST /v1/datasets/{id}/query" && s.Value >= 1 {
			sawQueryEndpoint = true
		}
	}
	if !sawQueryEndpoint {
		t.Error("http_requests_total missing the query endpoint series")
	}
	for _, s := range fams["dedupd_phase_duration_ms"].Samples {
		if s.Name == "dedupd_phase_duration_ms_count" && s.Labels["phase"] == "phase1" && s.Value < 1 {
			t.Errorf("phase1 histogram count = %g, want >= 1", s.Value)
		}
	}

	// Gauges: snapshot age is fresh (a job just published), runtime
	// gauges are live.
	age := fams["dedupd_query_snapshot_age_seconds"]
	if len(age.Samples) != 1 || age.Samples[0].Value < 0 || age.Samples[0].Value > 60 {
		t.Errorf("snapshot age = %+v, want [0, 60)", age.Samples)
	}
	if g := fams["dedupd_go_goroutines"]; len(g.Samples) != 1 || g.Samples[0].Value <= 0 {
		t.Errorf("go_goroutines = %+v", g.Samples)
	}
	if g := fams["dedupd_go_heap_alloc_bytes"]; len(g.Samples) != 1 || g.Samples[0].Value <= 0 {
		t.Errorf("go_heap_alloc_bytes = %+v", g.Samples)
	}
	if _, ok := fams["dedupd_slow_ops_total"]; !ok {
		t.Error("slow_ops family missing")
	}

	// The exposition contract, once every job kind a standalone node runs
	// has run: the family set matches the golden list, and JSON and
	// Prometheus report the same values.
	runJob(t, ts.URL, `{"dataset":"`+id+`","k":[3],"c":[4],"blocked":true}`)
	runJob(t, ts.URL, `{"dataset":"`+id+`","k":[3],"c":[4],"incremental":true}`)
	checkFamilyGolden(t, scrapeProm(t, ts.URL))
	// Endpoint observations land after the response is sent, so they can
	// move between the two renders: compare until one pair agrees.
	var diffs []string
	for attempt := 0; attempt < 50; attempt++ {
		if diffs = jsonPromMismatches(t, s.Metrics()); len(diffs) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(diffs) > 0 {
		t.Errorf("JSON and Prometheus disagree:\n%s", strings.Join(diffs, "\n"))
	}
}

// checkFamilyGolden compares the live family set (name, TYPE, label
// names) with testdata/prom_families.txt. The benchmark, dedupstat and
// the smoke scripts read these names, so a renamed or dropped family
// fails here; a new family goes into the file with its declaration.
func checkFamilyGolden(t *testing.T, fams map[string]promtext.Family) {
	t.Helper()
	live := map[string]bool{}
	for name, f := range fams {
		labels := map[string]bool{}
		for _, s := range f.Samples {
			for l := range s.Labels {
				if l != "le" {
					labels[l] = true
				}
			}
		}
		line := name + " " + f.Type
		if len(labels) > 0 {
			line += " " + strings.Join(slices.Sorted(maps.Keys(labels)), ",")
		}
		live[line] = true
	}
	raw, err := os.ReadFile("testdata/prom_families.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		golden[line] = true
	}
	for _, line := range slices.Sorted(maps.Keys(golden)) {
		if !live[line] {
			t.Errorf("family missing from the exposition: %s", line)
		}
	}
	for _, line := range slices.Sorted(maps.Keys(live)) {
		if !golden[line] {
			t.Errorf("family not in testdata/prom_families.txt: %s", line)
		}
	}
}

// jsonPromMismatches renders both expositions of m and lists every JSON
// counter or gauge that differs from its Prometheus sample, and every
// JSON histogram whose count or sum differs from its _count or _sum.
// JSON key k maps to dedupd_k_total or dedupd_k unless promSeries names
// an irregular family.
func jsonPromMismatches(t *testing.T, m *Metrics) []string {
	t.Helper()
	render := func(target string) string {
		rec := httptest.NewRecorder()
		m.handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec.Body.String()
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(render("/metrics")), &doc); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(strings.NewReader(render("/metrics?format=prometheus")))
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			samples[seriesID(s.Name, s.Labels)] = s.Value
		}
	}

	var diffs []string
	compare := func(path string, got float64, series string) {
		want, ok := samples[series]
		// The snapshot age ticks with the clock between the two renders.
		if path == "query_snapshot_age_seconds" && ok && math.Abs(got-want) < 1 {
			return
		}
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: no series %s", path, series))
		} else if got != want {
			diffs = append(diffs, fmt.Sprintf("%s = %v, %s = %v", path, got, series, want))
		}
	}
	var walk func(path []string, v any)
	walk = func(path []string, v any) {
		family, labels, jsonOnly := promSeries(path)
		if jsonOnly {
			return
		}
		key := strings.Join(path, "/")
		switch v := v.(type) {
		case float64:
			if _, ok := samples[seriesID(family+"_total", labels)]; ok {
				family += "_total"
			}
			compare(key, v, seriesID(family, labels))
		case map[string]any:
			if _, ok := v["buckets"]; ok {
				compare(key+" count", v["count"].(float64), seriesID(family+"_count", labels))
				compare(key+" sum", v["sum"].(float64), seriesID(family+"_sum", labels))
				return
			}
			for k, child := range v {
				walk(append(slices.Clip(path), k), child)
			}
		default:
			diffs = append(diffs, fmt.Sprintf("%s: unexpected JSON value %v", key, v))
		}
	}
	for k, v := range doc {
		walk([]string{k}, v)
	}
	slices.Sort(diffs)
	return diffs
}

// promSeries names the Prometheus family and labels of a JSON metrics
// path. Nested maps resolve at their leaves; jsonOnly marks values with
// no Prometheus counterpart.
func promSeries(path []string) (family string, labels map[string]string, jsonOnly bool) {
	switch {
	case len(path) == 1 && (path[0] == "phase1_duration_ms" || path[0] == "phase2_duration_ms"):
		return "dedupd_phase_duration_ms", map[string]string{"phase": strings.TrimSuffix(path[0], "_duration_ms")}, false
	case path[0] == "job_duration_ms": // every kind together
		return "", nil, true
	case len(path) == 2 && path[0] == "job_duration_by_kind":
		return "dedupd_job_duration_ms", map[string]string{"kind": path[1]}, false
	case len(path) == 2 && path[0] == "slow_ops":
		return "dedupd_slow_ops", map[string]string{"kind": path[1]}, false
	case len(path) == 3 && path[0] == "endpoints" && path[2] == "count":
		return "dedupd_http_requests", map[string]string{"endpoint": path[1]}, false
	case len(path) == 3 && path[0] == "endpoints" && path[2] == "latency_ms":
		return "dedupd_http_request_duration_ms", map[string]string{"endpoint": path[1]}, false
	case len(path) == 3 && path[0] == "endpoints" && path[2] == "total_us":
		return "", nil, true
	}
	return "dedupd_" + path[0], nil, false
}

// seriesID keys a sample by name and labels, in label-name order.
func seriesID(name string, labels map[string]string) string {
	var b strings.Builder
	b.WriteString(name)
	for _, k := range slices.Sorted(maps.Keys(labels)) {
		fmt.Fprintf(&b, ",%s=%q", k, labels[k])
	}
	return b.String()
}

// TestMetricsContentNegotiation pins the /metrics format selection: JSON
// by default and with ?format=json, the exposition with ?format=prometheus
// or a text/plain Accept header.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	get := func(path, accept string) string {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.Header.Get("Content-Type")
	}

	if ct := get("/metrics", ""); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default: %q", ct)
	}
	if ct := get("/metrics?format=json", "text/plain"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("format=json overrides Accept: %q", ct)
	}
	if ct := get("/metrics?format=prometheus", ""); ct != promtext.ContentType {
		t.Errorf("format=prometheus: %q", ct)
	}
	if ct := get("/metrics", "text/plain;version=0.0.4"); ct != promtext.ContentType {
		t.Errorf("Accept text/plain: %q", ct)
	}
	if ct := get("/metrics", "application/json, text/plain"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Accept preferring json: %q", ct)
	}
}

// TestPromExpositionUnderLoad scrapes concurrently with live traffic and
// lints every scrape — the exposition must stay valid while counters and
// histograms move underneath it.
func TestPromExpositionUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := createSeedDataset(t, ts.URL)
	runJob(t, ts.URL, `{"dataset":"`+id+`","k":[3],"c":[4]}`)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/query",
					"application/json", strings.NewReader(`{"record":["Doors","LA Woman"]}`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		scrapeProm(t, ts.URL) // fails the test on any lint violation
	}
	close(stop)
	<-done
}
