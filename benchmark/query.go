package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"fuzzydup"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/querysnap"
	"fuzzydup/internal/sqlwire"
	"fuzzydup/internal/strutil"
)

// The query workload: dedupd with a WAL (fsync on) serving a media
// corpus solved by one pruned DE_S job. One closed-loop client sends
// seeded point queries at the server default k, half exact hits and half
// one-edit near-misses; every sqlEvery-th operation is instead an SQL
// DEDUP() round trip with the job's parameters, so it is
// served from the committed snapshot. Nothing is written during the loop.

const (
	queryDefaultSize = 1000
	queryK           = 5 // the server's default candidate count
	querySetSize     = 1200
	jobK             = 4
	jobC             = 4.0
	jobTimeout       = 60 * time.Second
)

// sqlEvery sets the SQL share of the query loop: every sqlEvery-th
// operation is a DEDUP() round trip. No record of real traffic exists to
// derive the share from, so 1 in 25 is an assumption. It was picked so
// that a 25 s window holds about 400 DEDUP() round trips, enough for a
// steady p50, while they take about 6% of the loop's time (3.8 ms each
// against a 2.5 ms mean point query at 1000 media records, two-core
// Xeon), so ops_per_s stays a point-query figure.
const sqlEvery = 25

// pointQuery is one seeded query with its expected answer: for a hit,
// the rids of every record with the same key and their groups; for a
// near-miss, the brute-force top-k (index, distance) list.
type pointQuery struct {
	record []string
	hit    bool
	// hit: expected matches as "rid:sorted member rids" strings, sorted.
	matches []string
	// miss: expected candidates.
	cands []candidate
}

type candidate struct {
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
}

// queryResponse is the subset of a /query response the benchmark reads.
type queryResponse struct {
	Matches []struct {
		RID   int64 `json:"rid"`
		Group struct {
			Members []int64 `json:"members"`
		} `json:"group"`
	} `json:"matches"`
	Candidates []candidate     `json:"candidates"`
	Stats      querysnap.Stats `json:"stats"`
}

// solvedState is a dataset's solved partition as the benchmark sees it.
type solvedState struct {
	ds      string
	recs    []fuzzydup.Record
	rids    []int64
	groups  [][]int
	reps    []int
	groupOf []int
	job     jobStatus
}

func newSolvedState(ds string, recs []fuzzydup.Record, rids []int64, res sweepResult, job jobStatus) *solvedState {
	s := &solvedState{ds: ds, recs: recs, rids: rids, groups: res.Groups, reps: res.Representatives, job: job}
	s.groupOf = make([]int, len(recs))
	for gi, g := range res.Groups {
		for _, idx := range g {
			if idx >= 0 && idx < len(recs) {
				s.groupOf[idx] = gi
			}
		}
	}
	return s
}

// matchString renders one exact match for comparison.
func matchString(rid int64, members []int64) string {
	m := append([]int64(nil), members...)
	sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
	return fmt.Sprintf("%d:%v", rid, m)
}

// buildQuerySet draws the seeded query set: n queries, alternating exact
// hits (a corpus record verbatim) and near-misses (one character edit
// whose key is not in the corpus). Expected answers come from the solved
// partition (hits) and a brute-force scan (misses).
func buildQuerySet(seed int64, st *solvedState, n int) ([]pointQuery, error) {
	qs, byKey := drawQueries(seed, st.recs, n)
	keys := make([]string, len(st.recs))
	for i, rec := range st.recs {
		keys[i] = strutil.JoinFields(rec)
	}
	metric, err := distance.ByName(string(fuzzydup.MetricEdit), keys)
	if err != nil {
		return nil, err
	}
	for i := range qs {
		if qs[i].hit {
			for _, idx := range byKey[strutil.JoinFields(qs[i].record)] {
				qs[i].matches = append(qs[i].matches, matchString(st.rids[idx], st.memberRIDs(st.groupOf[idx])))
			}
			sort.Strings(qs[i].matches)
		}
	}
	// Brute-force expected candidates, split across nproc goroutines.
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += nproc {
				if !qs[i].hit {
					qs[i].cands = bruteTopK(metric, keys, strutil.JoinFields(qs[i].record), queryK)
				}
			}
		}(w)
	}
	wg.Wait()
	return qs, nil
}

// drawQueries draws n seeded queries over recs without expected
// answers, alternating exact hits and near-misses, and returns the
// key → record indexes map it checked misses against.
func drawQueries(seed int64, recs []fuzzydup.Record, n int) ([]pointQuery, map[string][]int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	byKey := make(map[string][]int)
	for i, rec := range recs {
		k := strutil.JoinFields(rec)
		byKey[k] = append(byKey[k], i)
	}
	qs := make([]pointQuery, n)
	for i := range qs {
		src := recs[rng.Intn(len(recs))]
		if i%2 == 0 {
			qs[i] = pointQuery{record: append([]string(nil), src...), hit: true}
			continue
		}
		for {
			rec := oneEdit(rng, src)
			if _, dup := byKey[strutil.JoinFields(rec)]; !dup {
				qs[i] = pointQuery{record: rec}
				break
			}
		}
	}
	return qs, byKey
}

// bruteTopK is the linear exact scan: the k records nearest to key in
// ascending (distance, index) order.
func bruteTopK(metric distance.Metric, keys []string, key string, k int) []candidate {
	all := make([]candidate, len(keys))
	for i, rk := range keys {
		all[i] = candidate{Index: i, Distance: metric.Distance(key, rk)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Distance != all[b].Distance {
			return all[a].Distance < all[b].Distance
		}
		return all[a].Index < all[b].Index
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// oneEdit returns rec with one character substituted, inserted, or
// deleted in one randomly chosen non-empty field.
func oneEdit(rng *rand.Rand, rec []string) []string {
	out := append([]string(nil), rec...)
	var fields []int
	for i, f := range out {
		if len(f) > 0 {
			fields = append(fields, i)
		}
	}
	if len(fields) == 0 {
		out[0] = "x"
		return out
	}
	fi := fields[rng.Intn(len(fields))]
	r := []rune(out[fi])
	pos := rng.Intn(len(r))
	ch := rune('a' + rng.Intn(26))
	switch rng.Intn(3) {
	case 0:
		r[pos] = ch
	case 1:
		r = append(r[:pos], append([]rune{ch}, r[pos:]...)...)
	default:
		if len(r) > 1 {
			r = append(r[:pos], r[pos+1:]...)
		} else {
			r[pos] = ch
		}
	}
	out[fi] = string(r)
	return out
}

func (s *solvedState) memberRIDs(gi int) []int64 {
	g := s.groups[gi]
	out := make([]int64, len(g))
	for i, idx := range g {
		out[i] = s.rids[idx]
	}
	return out
}

// checkQuery compares one response with the query's expected answer.
func (r *run) checkQuery(q pointQuery, resp *queryResponse) {
	if r.opts.corrupt && len(resp.Candidates) > 0 {
		resp.Candidates[len(resp.Candidates)-1].Distance += 1e-9
	}
	if q.hit {
		got := make([]string, len(resp.Matches))
		for i, m := range resp.Matches {
			got[i] = matchString(m.RID, m.Group.Members)
		}
		sort.Strings(got)
		r.check(fmt.Sprint(got) == fmt.Sprint(q.matches), "hit %q: matches %v, want %v", q.record, got, q.matches)
		return
	}
	ok := len(resp.Matches) == 0 && len(resp.Candidates) == len(q.cands)
	for i := 0; ok && i < len(q.cands); i++ {
		ok = resp.Candidates[i] == q.cands[i]
	}
	r.check(ok, "near-miss %q: candidates %v, want %v", q.record, resp.Candidates, q.cands)
}

// queryOp is one measured operation of a closed loop.
type queryOp struct {
	kind  string // "hit" or "miss" as drawn, or "sql"
	q     int    // query index (point queries)
	lat   time.Duration
	done  time.Duration // completion, from the start of the window
	bytes int
	stats querysnap.Stats
	// failed: the request returned an error, so lat is no sample.
	failed bool
	// reclassified: the server's answer disagreed with the drawn kind.
	// Under churn this is a drawn hit whose record was since edited or
	// deleted, or a drawn near-miss that a write made exact.
	reclassified bool
}

// expectedDedupRows is the DEDUP() answer the job implies: rid →
// group_id, where group_id is the smallest member rid.
func (s *solvedState) expectedDedupRows() map[int64]int64 {
	out := make(map[int64]int64, len(s.rids))
	for gi := range s.groups {
		m := s.memberRIDs(gi)
		minRID := m[0]
		for _, x := range m {
			minRID = min(minRID, x)
		}
		for _, x := range m {
			out[x] = minRID
		}
	}
	return out
}

// solveDataset ingests recs into a new dataset, runs one job with spec
// (dataset filled in), and returns the solved state.
func solveDataset(cl *client, name string, recs []fuzzydup.Record, spec map[string]any) (*solvedState, error) {
	info, err := cl.createDataset(name, recs)
	if err != nil {
		return nil, fmt.Errorf("create dataset: %w", err)
	}
	items, err := cl.listRecords(info.ID)
	if err != nil {
		return nil, fmt.Errorf("list records: %w", err)
	}
	rids := make([]int64, len(items))
	for i, it := range items {
		rids[i] = it.RID
	}
	spec["dataset"] = info.ID
	st, err := cl.submitJob(spec)
	if err != nil {
		return nil, fmt.Errorf("submit job: %w", err)
	}
	if st, err = cl.waitJob(st.ID, jobTimeout); err != nil {
		return nil, err
	}
	res, err := cl.jobResult(st.ID)
	if err != nil {
		return nil, fmt.Errorf("job result: %w", err)
	}
	if len(res.Results) == 0 {
		return nil, fmt.Errorf("job %s returned no sweep results", st.ID)
	}
	return newSolvedState(info.ID, recs, rids, res.Results[0], st), nil
}

func runQuery(r *run) error {
	size := r.opts.size
	if size == 0 {
		size = queryDefaultSize
	}
	r.recordEnv("dataset.Media", size, "WAL group commit, fsync on")

	var (
		d     *dedupd
		state *solvedState
	)
	keep, err := r.timeSetups(r.opts.setups, func() (func(), error) {
		ds, err := generate("dataset.Media", func() *dataset.Dataset {
			return dataset.Media(dataset.Config{Size: size, Seed: r.opts.seed})
		})
		if err != nil {
			return nil, err
		}
		srv, err := startDedupd(filepath.Join(r.opts.scratch, fmt.Sprintf("data-%d", time.Now().UnixNano())))
		if err != nil {
			return nil, err
		}
		cl := srv.newClient()
		defer cl.close()
		st, err := solveDataset(cl, "media", toRecords(ds.Records), map[string]any{
			"mode": "size", "index": "pruned", "k": []int{jobK}, "c": []float64{jobC}, "parallel": nproc,
		})
		r.op(err)
		if err != nil {
			srv.stop()
			return nil, err
		}
		d, state = srv, st
		return srv.stop, nil
	})
	if err != nil {
		return err
	}
	defer keep()
	r.say("corpus %d records, %d groups; seeding job queue %.1f ms, run %.1f ms",
		len(state.recs), len(state.groups), jobQueueMs(state.job), jobRunMs(state.job))

	qs, err := buildQuerySet(r.opts.seed, state, querySetSize)
	if err != nil {
		return err
	}
	expRows := state.expectedDedupRows()

	untraced, _, err := r.queryWindow(d, state, qs, expRows, nil)
	if err != nil {
		return err
	}
	for k, v := range untraced {
		r.e2e[k] = v
	}
	if !r.opts.trace {
		return nil
	}

	tr := newTracer()
	traced, ops, err := r.queryWindow(d, state, qs, expRows, tr)
	if err != nil {
		return err
	}
	r.compareWindows("trace overhead", "untraced", untraced, "traced", traced)
	if err := r.querysnapLayers(tr, state, qs, ops); err != nil {
		return err
	}
	r.layer("server.job_queue_ms", jobQueueMs(state.job))
	r.layer("server.job_run_ms", jobRunMs(state.job))
	r.reportSelfTimes(tr)
	r.absentPrefix("phase 1 runs only in set-up (the seeding job)", "nnindex.", "core.", "blocked.")
	r.absentPrefix("the measured loop writes nothing", "incremental.", "durable.")
	return nil
}

func jobQueueMs(st jobStatus) float64 {
	if st.Started == nil {
		return 0
	}
	return ms(st.Started.Sub(st.Created))
}

func jobRunMs(st jobStatus) float64 {
	if st.Started == nil || st.Finished == nil {
		return 0
	}
	return ms(st.Finished.Sub(*st.Started))
}

// queryWindow runs the closed loop for the configured seconds and
// returns the window's end-to-end metrics and its operations. With a
// tracer it also records one span per operation and fills the sqlwire
// and runtime layer metrics from the window's /metrics diff.
func (r *run) queryWindow(d *dedupd, st *solvedState, qs []pointQuery, expRows map[int64]int64, tr *tracer) (map[string]float64, []queryOp, error) {
	probe := d.newClient()
	defer probe.close()
	before, err := probe.scrape()
	if err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	perm := rand.New(rand.NewSource(r.opts.seed)).Perm(len(qs))

	// One closed-loop client: an HTTP connection for point queries and a
	// wire-protocol connection for every sqlEvery-th operation.
	cl := d.newClient()
	defer cl.close()
	sqlc, err := d.sqlDial()
	if err != nil {
		return nil, nil, err
	}
	defer sqlc.Close()
	var all []queryOp
	t0 := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		var o queryOp
		if i%sqlEvery == sqlEvery-1 {
			o = r.sqlOp(sqlc, st, expRows, tr)
		} else {
			o = r.pointOp(cl, st.ds, qs, perm[i%len(qs)], tr, true)
		}
		o.done = time.Since(t0)
		all = append(all, o)
	}
	wall := time.Since(t0)
	after, err := probe.scrape()
	if err != nil {
		return nil, nil, err
	}
	r.check(delta(before, after, "dedupd_jobs_queued_total") == 0,
		"dedupd_jobs_queued_total moved by %.0f during the query loop", delta(before, after, "dedupd_jobs_queued_total"))

	hit, miss, sqlLat := latencies(all, "hit", us), latencies(all, "miss", us), latencies(all, "sql", ms)
	points := len(hit) + len(miss)
	tag := "untraced"
	if tr != nil {
		tag = "traced"
	}
	r.say("%s window %.2f s, %d point queries, %d SQL DEDUP()", tag, wall.Seconds(), points, len(sqlLat))
	r.latency("query_hit_us", "us", hit)
	r.latency("query_miss_us", "us", miss)
	r.latency("sql_dedup_ms", "ms", sqlLat)
	qps := pointThroughput(all)
	r.say("query_qps %.1f 1/s (median of one-second sub-windows; mean over the window %.1f 1/s)", qps, float64(points)/wall.Seconds())
	r.say("server lookup time (dedupd_query_duration_ms diff): %s", histDelta(before, after, "dedupd_query_duration_ms").describe("ms"))

	if tr != nil {
		sqlHist := histDelta(before, after, "dedupd_sql_query_duration_ms")
		r.say("server SQL time (dedupd_sql_query_duration_ms diff): %s", sqlHist.describe("ms"))
		r.layer("sqlwire.dedup_server_ms", sqlHist.mean())
		r.layer("sqlwire.client_self_ms", mean(sqlLat)-sqlHist.mean())
		if n := delta(before, after, "dedupd_sql_queries_total"); n > 0 {
			r.layer("sqlwire.rows_per_dedup", delta(before, after, "dedupd_sql_rows_returned_total")/n)
		}
		r.runtimeLayers(before, after)
	}
	return map[string]float64{
		"primary_p50_ms":   median(miss) / 1000,
		"secondary_p50_ms": median(hit) / 1000,
		"tertiary_p50_ms":  median(sqlLat),
		"ops_per_s":        qps,
	}, all, nil
}

// pointThroughput returns the median, over the window's whole one-second
// sub-windows, of the point queries completed in each. A stall of the
// shared host then slows one sub-window instead of the whole figure.
func pointThroughput(ops []queryOp) float64 {
	var perSec []float64
	for _, o := range ops {
		if o.kind == "sql" || o.failed {
			continue
		}
		sec := int(o.done / time.Second)
		for len(perSec) <= sec {
			perSec = append(perSec, 0)
		}
		perSec[sec]++
	}
	if len(perSec) > 1 {
		perSec = perSec[:len(perSec)-1] // the last sub-window is partial
	}
	return median(perSec)
}

// runtimeLayers fills the Go runtime metrics from a /metrics diff.
func (r *run) runtimeLayers(before, after *promSnap) {
	r.layer("runtime.gc_cycles", delta(before, after, "dedupd_go_gc_cycles_total"))
	r.layer("runtime.heap_alloc_mb", after.values["dedupd_go_heap_alloc_bytes"]/(1<<20))
}

// latencies extracts one kind's latencies in the given unit. Failed and
// reclassified operations are left out.
func latencies(ops []queryOp, kind string, unit func(time.Duration) float64) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind == kind && !o.failed && !o.reclassified {
			out = append(out, unit(o.lat))
		}
	}
	return out
}

// pointOp sends one point query, times it from the client, and (when
// verify is set) checks the answer. A failed request fails the run.
func (r *run) pointOp(cl *client, ds string, qs []pointQuery, qi int, tr *tracer, verify bool) queryOp {
	q := qs[qi]
	kind := "miss"
	if q.hit {
		kind = "hit"
	}
	sp := tr.root("http.query."+kind, "server")
	var resp queryResponse
	t0 := time.Now()
	n, err := cl.do("POST", "/v1/datasets/"+ds+"/query", map[string]any{"record": q.record, "k": queryK}, &resp)
	lat := time.Since(t0)
	sp.end()
	r.op(err)
	if err != nil {
		r.check(false, "point query %q failed: %v", q.record, err)
		return queryOp{kind: kind, q: qi, failed: true}
	}
	if verify {
		r.checkQuery(q, &resp)
	}
	return queryOp{kind: kind, q: qi, lat: lat, bytes: n, stats: resp.Stats,
		reclassified: q.hit != (len(resp.Matches) > 0)}
}

// sqlOp runs one DEDUP() round trip with the job's parameters and
// checks its rows against the job's groups. A failed round trip fails
// the run.
func (r *run) sqlOp(c *sqlwire.Client, st *solvedState, exp map[int64]int64, tr *tracer) queryOp {
	sp := tr.root("sql.dedup", "sqlwire")
	t0 := time.Now()
	rs, err := c.Query(fmt.Sprintf("SELECT rid, group_id FROM DEDUP('%s', %d, 0, %g)", st.ds, jobK, jobC))
	lat := time.Since(t0)
	sp.end()
	r.op(err)
	if err != nil {
		r.check(false, "DEDUP() failed: %v", err)
		return queryOp{kind: "sql", failed: true}
	}
	if r.opts.corrupt && len(rs.Rows) > 0 {
		rs.Rows[0][1].S += "0"
	}
	ok := len(rs.Rows) == len(exp)
	for _, row := range rs.Rows {
		if !ok {
			break
		}
		rid, e1 := strconv.ParseInt(row[0].S, 10, 64)
		gid, e2 := strconv.ParseInt(row[1].S, 10, 64)
		ok = e1 == nil && e2 == nil && exp[rid] == gid
	}
	r.check(ok, "DEDUP() rows differ from the job's groups (%d rows, want %d)", len(rs.Rows), len(exp))
	return queryOp{kind: "sql", lat: lat}
}

// querysnapLayers measures the querysnap layer directly: it builds the
// same snapshot the server published (querysnap.Build on the job's
// records and groups) and times Snapshot.Lookup on every query, then
// attributes the traced window's client latency to HTTP and lookup.
//
// Under churn the server answered from many snapshots and st is the
// final one. A query whose local lookup no longer answers as drawn (its
// record was edited or deleted) is left out of the lookup times and of
// http_self_us. A hit's lookup is one key probe, so its cost does not
// depend on which snapshot answered it.
func (r *run) querysnapLayers(tr *tracer, st *solvedState, qs []pointQuery, ops []queryOp) error {
	cfg := querysnap.Config{
		Dataset: st.ds, Records: make([][]string, len(st.recs)), RIDs: st.rids,
		Groups: st.groups, Reps: st.reps,
		Params: querysnap.Params{Mode: "size", K: jobK, C: jobC, Metric: string(fuzzydup.MetricEdit)},
	}
	for i, rec := range st.recs {
		cfg.Records[i] = rec
	}
	var builds []float64
	var snap *querysnap.Snapshot
	for i := 0; i < 5; i++ {
		sp := tr.root("querysnap.Build", "querysnap")
		t0 := time.Now()
		s, err := querysnap.Build(cfg)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return fmt.Errorf("querysnap.Build: %w", err)
		}
		builds = append(builds, ms(d))
		snap = s
	}
	r.layer("querysnap.build_ms", median(builds))

	// Per-query lookup time: the median of three passes.
	const passes = 3
	perQ := make([][]float64, len(qs))
	for p := 0; p < passes; p++ {
		for i, q := range qs {
			sp := tr.root("querysnap.Lookup", "querysnap")
			t0 := time.Now()
			snap.Lookup(q.record, queryK)
			perQ[i] = append(perQ[i], us(time.Since(t0)))
			sp.end()
		}
	}
	lookup := make([]float64, len(qs))
	stale := make([]bool, len(qs))
	var hitL, missL []float64
	for i, q := range qs {
		lookup[i] = median(perQ[i])
		if stale[i] = q.hit != (len(snap.Lookup(q.record, queryK).Matches) > 0); stale[i] {
			continue
		}
		if q.hit {
			hitL = append(hitL, lookup[i])
		} else {
			missL = append(missL, lookup[i])
		}
	}
	r.layer("querysnap.lookup_hit_us", median(hitL))
	r.layer("querysnap.lookup_miss_us", median(missL))

	var self []float64
	var bytes, misses, scanned, verified, pruned float64
	points := 0.0
	for _, o := range ops {
		if o.kind == "sql" || o.failed || o.reclassified || stale[o.q] {
			continue
		}
		points++
		bytes += float64(o.bytes)
		if o.kind == "hit" {
			self = append(self, us(o.lat)-lookup[o.q])
			continue
		}
		misses++
		scanned += float64(o.stats.Scanned)
		verified += float64(o.stats.Verified)
		pruned += float64(o.stats.Pruned)
	}
	r.layer("server.http_self_us", median(self))
	if points > 0 {
		r.layer("server.response_bytes", bytes/points)
	}
	if misses > 0 {
		r.layer("querysnap.scanned_per_miss", scanned/misses)
		r.layer("querysnap.verified_per_miss", verified/misses)
	}
	if scanned > 0 {
		r.layer("querysnap.prune_frac", pruned/scanned)
	}
	return nil
}
