package server

import (
	"expvar"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"fuzzydup/internal/obs"
	"fuzzydup/internal/obs/promtext"
)

// httpLatencyBucketsMs are the histogram bounds for per-endpoint request
// latencies: handlers are quick (jobs run asynchronously), so the range
// reaches from tens of microseconds up through the request timeout.
var httpLatencyBucketsMs = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000,
}

// subMsLatencyBucketsMs are the bounds for operations that live in the
// sub-millisecond range (WAL appends and fsyncs, point queries); the
// default latency buckets would pile everything into the first bucket.
var subMsLatencyBucketsMs = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
}

// Metrics holds the service's operational counters. They are expvar
// values but owned per-Server rather than registered in expvar's global
// registry, which panics on duplicate names — tests (and embedders) can
// run many servers in one process. Publish exports them globally for the
// daemon.
//
// newMetrics is the list of record. Each metric is declared there once,
// by a helper that creates the value, sets it into the JSON map served
// at GET /metrics, and appends the renderer of its Prometheus family
// (served with ?format=prometheus). JSON key k renders as dedupd_k, and
// counters as dedupd_k_total. The few families whose two shapes differ
// (per-phase and per-kind histograms, slow_ops{kind}, endpoints, the Go
// runtime, the node's cluster families) go through the same list.
//
// Histograms render in JSON as {"count", "sum", "buckets": [{"le", "n"},
// ...], "overflow"} with bounds in milliseconds (see obs.Histogram).
type Metrics struct {
	root     *expvar.Map
	families []func(*promtext.Writer) // Prometheus renderers, in declaration order

	jobsQueued      *expvar.Int
	jobsDone        *expvar.Int
	jobsFailed      *expvar.Int
	jobsCancelled   *expvar.Int
	jobsRunning     *expvar.Int
	jobDuration     *obs.Histogram
	jobDurationKind map[string]*obs.Histogram

	datasets        *expvar.Int
	recordsIngested *expvar.Int

	phase1Duration     *obs.Histogram
	phase2Duration     *obs.Histogram
	cacheHits          *expvar.Int
	cacheComputes      *expvar.Int
	distanceCalls      *expvar.Int
	phase1Pruned       *expvar.Int
	phase1Candidates   *expvar.Int
	phase1Fallbacks    *expvar.Int
	blocksSolved       *expvar.Int
	boundaryResolves   *expvar.Int
	blockSolveDuration *obs.Histogram

	incrementalSessions *expvar.Int
	repairsRun          *expvar.Int
	repairDirtyLookups  *expvar.Int
	repairDuration      *obs.Histogram

	queries               *expvar.Int
	queryMatches          *expvar.Int
	queryMisses           *expvar.Int
	queryPruned           *expvar.Int
	snapshotsPublished    *expvar.Int
	queryDuration         *obs.Histogram
	snapshotBuildDuration *obs.Histogram

	sqlConnections   *expvar.Int
	sqlQueries       *expvar.Int
	sqlRowsReturned  *expvar.Int
	sqlErrors        *expvar.Int
	sqlQueryDuration *obs.Histogram

	slowOpsKind map[string]*expvar.Int

	walAppends        *expvar.Int
	walFsyncs         *expvar.Int
	walBytes          *expvar.Int
	snapshotsTaken    *expvar.Int
	recoveryDuration  *expvar.Int
	walAppendDuration *obs.Histogram
	walFsyncDuration  *obs.Histogram

	endpoints *expvar.Map
	mu        sync.Mutex // serializes creation of per-endpoint entries

	// snapshotAge computes the query_snapshot_age_seconds gauge at scrape
	// time (set by the Server once the engine exists; nil reads 0).
	snapshotAge func() float64
}

func newMetrics() *Metrics {
	m := &Metrics{root: new(expvar.Map).Init()}

	// Job lifecycle.
	m.jobsQueued = m.counter("jobs_queued", "Jobs accepted into the queue.")
	m.jobsDone = m.counter("jobs_done", "Jobs finished successfully.")
	m.jobsFailed = m.counter("jobs_failed", "Jobs finished with an error.")
	m.jobsCancelled = m.counter("jobs_cancelled", "Jobs cancelled before or during execution.")
	m.jobsRunning = m.gauge("jobs_running", "Jobs currently executing.")
	// Every run, cancelled mid-run included, lands in the JSON-only
	// job_duration_ms and again in its kind's histogram.
	m.jobDuration = obs.NewHistogram()
	m.declare("job_duration_ms", m.jobDuration, nil)
	m.jobDurationKind = m.histogramVec("job_duration_by_kind", "job_duration_ms",
		"Job run durations by kind, all outcomes including cancelled.",
		"kind", "batch", "distributed", "incremental")

	// Datasets and ingest.
	m.datasets = m.gauge("datasets", "Datasets currently registered.")
	m.recordsIngested = m.counter("records_ingested", "Records accepted across all datasets.")

	// Solve internals: phases, cache, distance calls, blocked pipeline.
	// Phase timings are one Prometheus family but a top-level JSON key
	// per phase.
	phase := m.histogramVec("", "phase_duration_ms", "Per-sweep-point phase durations by phase.",
		"phase", "phase1", "phase2")
	m.phase1Duration, m.phase2Duration = phase["phase1"], phase["phase2"]
	m.declare("phase1_duration_ms", m.phase1Duration, nil)
	m.declare("phase2_duration_ms", m.phase2Duration, nil)
	m.cacheHits = m.counter("phase1_cache_hits", "Sweep points served from a job's phase-1 cache.")
	m.cacheComputes = m.counter("phase1_cache_computes", "Sweep points that ran the full NN computation.")
	m.distanceCalls = m.counter("distance_calls", "Metric invocations across all jobs.")
	// The three prefilter counters move on pruned-index jobs only. A
	// fallback is a non-edit metric, a degenerate signature, or a
	// whole-relation k.
	m.phase1Pruned = m.counter("phase1_pruned", "Records the phase-1 signature prefilter excluded without a metric call.")
	m.phase1Candidates = m.counter("phase1_candidates", "Records batch phase 1 exactly verified after prefiltering.")
	m.phase1Fallbacks = m.counter("phase1_fallbacks", "Phase-1 queries the prefilter answered via a full exact scan.")
	m.blocksSolved = m.counter("blocks_solved", "Block solves run by blocked jobs.") // all guard rounds included
	m.boundaryResolves = m.counter("boundary_resolves", "Block re-solves triggered by the boundary guard.")
	m.blockSolveDuration = m.histogram("block_solve_duration_ms", "Per-block solve durations of blocked jobs.")

	// Incremental sessions and repairs.
	m.incrementalSessions = m.gauge("incremental_sessions", "Live incremental sessions.")
	m.repairsRun = m.counter("repairs_run", "Incremental repair operations applied.")
	// ÷ repairs_run = mean dirty-set size.
	m.repairDirtyLookups = m.counter("repair_dirty_lookups", "Phase-1 rows relooked up by repairs.")
	// The per-phase shares also land in phase1/phase2_duration_ms.
	m.repairDuration = m.histogram("repair_duration_ms", "Per-repair-operation durations (phase 1 + phase 2).")

	// Online query path.
	m.queries = m.counter("queries", "Point queries served.")
	m.queryMatches = m.counter("query_matches", "Queries answered by an exact key match.")
	m.queryMisses = m.counter("query_misses", "Queries answered by a nearest-candidate scan.")
	m.queryPruned = m.counter("query_pruned_records", "Candidate records eliminated by the signature prefilter.")
	m.snapshotsPublished = m.counter("query_snapshots_published", "Query snapshots published by finished jobs.")
	// Computed at scrape time; 0 with no published snapshots.
	m.gaugeFunc("query_snapshot_age_seconds",
		"Max over datasets of now minus the last snapshot publish (staleness).", m.snapshotAgeSeconds)
	m.queryDuration = m.histogram("query_duration_ms", "Per-query lookup latencies.", subMsLatencyBucketsMs...)
	m.snapshotBuildDuration = m.histogram("snapshot_build_duration_ms", "Query snapshot build times.")

	// SQL wire surface.
	m.sqlConnections = m.gauge("sql_connections", "Open SQL wire-protocol connections.")
	m.sqlQueries = m.counter("sql_queries", "SQL statements executed (errors included).")
	m.sqlRowsReturned = m.counter("sql_rows_returned", "Result rows sent to SQL clients.")
	m.sqlErrors = m.counter("sql_errors", "SQL statements that failed.")
	// Statements range from sub-ms catalog scans to DEDUP() solves that
	// run a full job; the default (wide) bounds fit.
	m.sqlQueryDuration = m.histogram("sql_query_duration_ms", "Per-statement SQL execution latencies.")

	// Slow-op log.
	m.slowOpsKind = m.counterVec("slow_ops", "Operations that exceeded their slow-op latency threshold.",
		"kind", "job", "query", "repair", "sql")

	// Durability (durable mode only). One group-commit fsync typically
	// covers many appends.
	m.walAppends = m.counter("wal_appends", "WAL records appended.")
	m.walFsyncs = m.counter("wal_fsyncs", "Group-commit fsyncs.")
	m.walBytes = m.counter("wal_bytes", "Bytes appended to the WAL.")
	m.snapshotsTaken = m.counter("snapshots_taken", "Durable snapshots completed.")
	m.recoveryDuration = m.gauge("recovery_duration_ms", "Wall time of the last startup recovery.")
	m.walAppendDuration = m.histogram("wal_append_duration_ms", "Per-append WAL latencies.", subMsLatencyBucketsMs...)
	m.walFsyncDuration = m.histogram("wal_fsync_duration_ms", "Group-commit fsync latencies.", subMsLatencyBucketsMs...)

	// HTTP surface: JSON {"POST /v1/jobs": {"count": n, "total_us": µs,
	// "latency_ms": hist}}, labelled by mux pattern (bounded by the route
	// table).
	m.endpoints = new(expvar.Map).Init()
	m.declare("endpoints", m.endpoints, m.writeEndpoints)

	// Go runtime, sampled at scrape time.
	m.declare("", nil, writeRuntime)
	return m
}

// declare is the registry's single entry point: it sets v into the JSON
// map under key and appends render to the Prometheus exposition. An
// empty key or a nil render leaves that side out, for the families whose
// JSON and Prometheus shapes differ. The render list is not synchronized:
// declare only while building the Server, before /metrics is served.
func (m *Metrics) declare(key string, v expvar.Var, render func(*promtext.Writer)) {
	if key != "" {
		m.root.Set(key, v)
	}
	if render != nil {
		m.families = append(m.families, render)
	}
}

// counter declares a cumulative count, rendered as dedupd_<key>_total.
func (m *Metrics) counter(key, help string) *expvar.Int {
	v := new(expvar.Int)
	m.declare(key, v, func(pw *promtext.Writer) {
		pw.Counter("dedupd_"+key+"_total", help, promtext.Sample{Value: float64(v.Value())})
	})
	return v
}

// gauge declares a level that goes up and down, rendered as dedupd_<key>.
func (m *Metrics) gauge(key, help string) *expvar.Int {
	v := new(expvar.Int)
	m.declare(key, v, func(pw *promtext.Writer) {
		pw.Gauge("dedupd_"+key, help, promtext.Sample{Value: float64(v.Value())})
	})
	return v
}

// gaugeFunc declares a gauge computed by f at read time.
func (m *Metrics) gaugeFunc(key, help string, f func() float64) {
	m.declare(key, expvar.Func(func() any { return f() }), func(pw *promtext.Writer) {
		pw.Gauge("dedupd_"+key, help, promtext.Sample{Value: f()})
	})
}

// histogram declares a histogram over bounds (obs.NewHistogram's
// defaults when none), rendered as dedupd_<key>.
func (m *Metrics) histogram(key, help string, bounds ...float64) *obs.Histogram {
	h := obs.NewHistogram(bounds...)
	m.declare(key, h, func(pw *promtext.Writer) {
		pw.Histogram("dedupd_"+key, help, promtext.HistogramSample{Snapshot: h.Snapshot()})
	})
	return h
}

// counterVec declares one counter per label value: JSON {"value": n}
// under key, Prometheus dedupd_<key>_total{label="value"}. Values are
// given in sorted order.
func (m *Metrics) counterVec(key, help, label string, values ...string) map[string]*expvar.Int {
	vars := new(expvar.Map).Init()
	cs := make(map[string]*expvar.Int, len(values))
	for _, v := range values {
		cs[v] = new(expvar.Int)
		vars.Set(v, cs[v])
	}
	m.declare(key, vars, func(pw *promtext.Writer) {
		samples := make([]promtext.Sample, len(values))
		for i, v := range values {
			samples[i] = promtext.Sample{Labels: []promtext.Label{{Name: label, Value: v}}, Value: float64(cs[v].Value())}
		}
		pw.Counter("dedupd_"+key+"_total", help, samples...)
	})
	return cs
}

// histogramVec declares one default-bounds histogram per label value,
// rendered together as dedupd_<name>{label="value"}. JSON nests them
// under key as {"value": hist}; an empty key leaves their JSON placement
// to the caller. Values are given in sorted order.
func (m *Metrics) histogramVec(key, name, help, label string, values ...string) map[string]*obs.Histogram {
	vars := new(expvar.Map).Init()
	hs := make(map[string]*obs.Histogram, len(values))
	for _, v := range values {
		hs[v] = obs.NewHistogram()
		vars.Set(v, hs[v])
	}
	m.declare(key, vars, func(pw *promtext.Writer) {
		samples := make([]promtext.HistogramSample, len(values))
		for i, v := range values {
			samples[i] = promtext.HistogramSample{Labels: []promtext.Label{{Name: label, Value: v}}, Snapshot: hs[v].Snapshot()}
		}
		pw.Histogram("dedupd_"+name, help, samples...)
	})
	return hs
}

// writeEndpoints renders the per-endpoint map as request-count and
// latency families labelled by route pattern, in the map's sorted key
// order.
func (m *Metrics) writeEndpoints(pw *promtext.Writer) {
	var counts []promtext.Sample
	var hists []promtext.HistogramSample
	m.endpoints.Do(func(kv expvar.KeyValue) {
		e := kv.Value.(*expvar.Map)
		labels := []promtext.Label{{Name: "endpoint", Value: kv.Key}}
		counts = append(counts, promtext.Sample{Labels: labels, Value: float64(e.Get("count").(*expvar.Int).Value())})
		hists = append(hists, promtext.HistogramSample{Labels: labels, Snapshot: e.Get("latency_ms").(*obs.Histogram).Snapshot()})
	})
	pw.Counter("dedupd_http_requests_total", "Requests served by endpoint pattern.", counts...)
	pw.Histogram("dedupd_http_request_duration_ms", "Request latencies by endpoint pattern.", hists...)
}

// writeRuntime renders the Go runtime families from one ReadMemStats.
func writeRuntime(pw *promtext.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var lastPause float64 // the newest entry of the circular PauseNs buffer
	if ms.NumGC > 0 {
		lastPause = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	pw.Gauge("dedupd_go_goroutines", "Goroutines at scrape time.", promtext.Sample{Value: float64(runtime.NumGoroutine())})
	pw.Gauge("dedupd_go_heap_alloc_bytes", "Bytes of allocated heap objects.", promtext.Sample{Value: float64(ms.HeapAlloc)})
	pw.Gauge("dedupd_go_heap_objects", "Allocated heap objects.", promtext.Sample{Value: float64(ms.HeapObjects)})
	pw.Counter("dedupd_go_gc_cycles_total", "Completed GC cycles.", promtext.Sample{Value: float64(ms.NumGC)})
	pw.Counter("dedupd_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.",
		promtext.Sample{Value: float64(ms.PauseTotalNs) / 1e9})
	pw.Gauge("dedupd_go_gc_pause_last_seconds", "Most recent GC stop-the-world pause.", promtext.Sample{Value: lastPause})
}

// snapshotAgeSeconds evaluates the staleness gauge, rounded to
// milliseconds so the JSON rendering stays readable.
func (m *Metrics) snapshotAgeSeconds() float64 {
	if m.snapshotAge == nil {
		return 0
	}
	return math.Round(m.snapshotAge()*1000) / 1000
}

// Publish registers the counter map in the global expvar registry under
// the given name (typically "dedupd"), making it visible on /debug/vars.
// Call at most once per process.
func (m *Metrics) Publish(name string) {
	expvar.Publish(name, m.root)
}

// observe records one served request for the per-endpoint counters and
// latency histogram.
func (m *Metrics) observe(endpoint string, d time.Duration) {
	v := m.endpoints.Get(endpoint)
	if v == nil {
		m.mu.Lock()
		if v = m.endpoints.Get(endpoint); v == nil {
			e := new(expvar.Map).Init()
			e.Set("count", new(expvar.Int))
			e.Set("total_us", new(expvar.Int))
			e.Set("latency_ms", obs.NewHistogram(httpLatencyBucketsMs...))
			m.endpoints.Set(endpoint, e)
			v = e
		}
		m.mu.Unlock()
	}
	e := v.(*expvar.Map)
	e.Get("count").(*expvar.Int).Add(1)
	e.Get("total_us").(*expvar.Int).Add(d.Microseconds())
	e.Get("latency_ms").(*obs.Histogram).ObserveDuration(d)
}

// handler serves the counter map: JSON by default, the Prometheus text
// exposition — every declared family, in declaration order — when the
// request asks for it via ?format=prometheus or an Accept header
// preferring text/plain.
func (m *Metrics) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", promtext.ContentType)
			pw := promtext.NewWriter(w)
			for _, render := range m.families {
				render(pw)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write([]byte(m.root.String()))
	})
}

// wantsPrometheus implements the content negotiation of GET /metrics:
// the explicit ?format=prometheus query wins; otherwise an Accept header
// that mentions text/plain (what Prometheus scrapers send) and not
// application/json selects the exposition.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// endpointLabel normalizes a request to a bounded-cardinality metrics
// key. The label is the mux pattern that served the request ("GET
// /v1/datasets/{id}"), which collapses every concrete ID — the pattern
// set is fixed at route-registration time, so the endpoints map cannot
// grow with traffic. Requests no registered route claimed (the catch-all
// 404 pattern, or a timeout that fired before routing) collapse to a
// single "other" label rather than minting a key per probed path.
func endpointLabel(r *http.Request) string {
	pat := r.Pattern
	if pat == "" || pat == "/" {
		return r.Method + " other"
	}
	if strings.Contains(pat, " ") { // method-qualified pattern
		return pat
	}
	return r.Method + " " + pat
}
