package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/sqldb"
	"fuzzydup/internal/sqlwire"
)

// End-to-end tests of the SQL product surface: a real wire listener on a
// loopback port, a real client handshake, and queries against the same
// server state the REST tests exercise.

// startSQL binds a loopback listener, attaches the server's SQL surface
// to it, and returns its address. Shutdown (via newTestServer's cleanup)
// drains it.
func startSQL(t *testing.T, s *Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s.StartSQL(lis)
	return lis.Addr().String()
}

func dialSQL(t *testing.T, addr, user, password string) *sqlwire.Client {
	t.Helper()
	cl, err := sqlwire.Dial(addr, user, password, "")
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// rowStrings renders a wire result set as "a|b|c" lines — the byte-level
// form the equivalence tests compare.
func rowStrings(res *sqlwire.Resultset) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, c := range row {
			if c.Null {
				parts[j] = "NULL"
			} else {
				parts[j] = c.S
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func mustQuery(t *testing.T, cl *sqlwire.Client, q string) *sqlwire.Resultset {
	t.Helper()
	res, err := cl.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func metricsJSON(t *testing.T, base string) map[string]any {
	t.Helper()
	var m map[string]any
	if code := doJSON(t, "GET", base+"/metrics", "", "", &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return m
}

// TestSQLVirtualTables drives the catalog over the wire: datasets and
// records reflect REST-ingested state, dup_groups is empty before any
// solve, and dataset pushdown narrows the scan.
func TestSQLVirtualTables(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	cl := dialSQL(t, startSQL(t, s), "", "")

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	res := mustQuery(t, cl, "SELECT dataset, records FROM datasets")
	if got, want := rowStrings(res), []string{dsID + "|10"}; len(got) != 1 || got[0] != want[0] {
		t.Errorf("datasets = %v, want %v", got, want)
	}

	res = mustQuery(t, cl, fmt.Sprintf("SELECT rid, record, block_key FROM records WHERE dataset = '%s' ORDER BY rid", dsID))
	if len(res.Rows) != 10 {
		t.Fatalf("records rows = %d, want 10", len(res.Rows))
	}
	first := rowStrings(res)[0]
	if !strings.Contains(first, "The Doors") {
		t.Errorf("first record row = %q, want The Doors", first)
	}
	// The dup pair rows 4/5 (Aaliyah) share a block key — the anchor the
	// pushdown test leans on.
	if k4, k5 := res.Rows[4][2], res.Rows[5][2]; k4.Null || k4.S != k5.S {
		t.Errorf("rows 4/5 block keys differ: %+v vs %+v", k4, k5)
	}

	// No committed solve yet: dup_groups and nn_reln are empty, not errors.
	for _, q := range []string{"SELECT * FROM dup_groups", "SELECT * FROM nn_reln"} {
		if res := mustQuery(t, cl, q); len(res.Rows) != 0 {
			t.Errorf("%s before any solve: %d rows, want 0", q, len(res.Rows))
		}
	}

	// Unknown table and unknown dataset fail cleanly.
	if _, err := cl.Query("SELECT * FROM no_such_table"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := cl.Query("SELECT * FROM DEDUP('nope')"); err == nil {
		t.Error("DEDUP on unknown dataset accepted")
	}
}

// TestSQLDedupMatchesJobPath is the core equivalence claim: DEDUP() over
// the wire returns bit-for-bit the same partition as the REST job path,
// and when the committed snapshot already answers the parameterization it
// is reused instead of solving again.
func TestSQLDedupMatchesJobPath(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	cl := dialSQL(t, startSQL(t, s), "", "")

	// Solve through REST first.
	var st JobStatus
	body := fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4]}`, dsID)
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json", body, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitForState(t, ts.URL, st.ID, StateDone)
	var jobRes JobResult
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/result", "", "", &jobRes); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}

	// Expected (rid, group_id) pairs from the REST result: record index i
	// holds rid i+1 (ingest order), group_id is the smallest member rid.
	recs := mustQuery(t, cl, fmt.Sprintf("SELECT rid FROM records WHERE dataset = '%s' ORDER BY rid", dsID))
	if len(recs.Rows) != jobRes.Records {
		t.Fatalf("records = %d, job saw %d", len(recs.Rows), jobRes.Records)
	}
	rid := func(idx int) int64 {
		v, err := strconv.ParseInt(recs.Rows[idx][0].S, 10, 64)
		if err != nil {
			t.Fatalf("rid %q: %v", recs.Rows[idx][0].S, err)
		}
		return v
	}
	var want []string
	for _, g := range jobRes.Results[0].Groups {
		gid := rid(g[0])
		for _, idx := range g[1:] {
			if r := rid(idx); r < gid {
				gid = r
			}
		}
		for _, idx := range g {
			want = append(want, fmt.Sprintf("%d|%d", rid(idx), gid))
		}
	}

	queued := s.metrics.jobsQueued.Value()
	res := mustQuery(t, cl, fmt.Sprintf("SELECT rid, group_id FROM DEDUP('%s', 3, 0, 4) ORDER BY rid", dsID))
	got := rowStrings(res)

	sortStrings := func(xs []string) []string {
		out := append([]string(nil), xs...)
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[j] < out[i] {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
		return out
	}
	if g, w := strings.Join(sortStrings(got), "\n"), strings.Join(sortStrings(want), "\n"); g != w {
		t.Errorf("DEDUP partition diverges from job path:\n%s\nwant:\n%s", g, w)
	}
	if s.metrics.jobsQueued.Value() != queued {
		t.Errorf("matching DEDUP submitted a new job; want snapshot reuse")
	}

	// dup_groups reads the same snapshot, so its (rid, group_id) pairs
	// agree with DEDUP's row for row (both ORDER BY rid).
	dg := mustQuery(t, cl, fmt.Sprintf("SELECT rid, group_id FROM dup_groups WHERE dataset = '%s' ORDER BY rid", dsID))
	if g, w := strings.Join(rowStrings(dg), "\n"), strings.Join(got, "\n"); g != w {
		t.Errorf("dup_groups diverges from DEDUP:\n%s\nvs\n%s", g, w)
	}

	// nn_reln now materializes the phase-1 relation of the solve.
	nn := mustQuery(t, cl, fmt.Sprintf("SELECT rid, rank, neighbor_rid FROM nn_reln WHERE dataset = '%s'", dsID))
	if len(nn.Rows) == 0 {
		t.Error("nn_reln empty after a committed solve")
	}

	// A different parameterization misses the snapshot and runs a job.
	queued = s.metrics.jobsQueued.Value()
	mustQuery(t, cl, fmt.Sprintf("SELECT rid FROM DEDUP('%s', 2)", dsID))
	if s.metrics.jobsQueued.Value() != queued+1 {
		t.Errorf("non-matching DEDUP did not submit a job")
	}

	// Reuse follows the question a job answered, not how it solved it.
	// Each case first solves a fresh copy of the dataset over REST with
	// one field changed. DEDUP(ds, 3, 0, 4) must then return the default
	// partition above: from that job's snapshot when only the speed
	// changed, from exactly one new job when the answer can differ.
	for _, tc := range []struct {
		name, field string
		reuse       bool
	}{
		{"pruned", `"index":"pruned"`, true},
		{"p2", `"p":2`, true},
		{"blocked", `"blocked":true`, true},
		{"incremental", `"incremental":true`, true},
		{"use_sql", `"use_sql":true`, true},
		{"max2", `"agg":"max2"`, false},
		{"p8", `"p":8`, false},
		{"minimal_compact", `"minimal_compact":true`, false},
		{"qgram", `"index":"qgram"`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := createSeedDataset(t, ts.URL)
			st := submitJob(t, ts.URL, fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],%s}`, ds, tc.field))
			waitForState(t, ts.URL, st.ID, StateDone)
			if tc.name == "p8" {
				checkNNReln(t, cl, ds, core.Cut{MaxSize: 3}, 8)
			}
			queued := s.metrics.jobsQueued.Value()
			res := mustQuery(t, cl, fmt.Sprintf("SELECT rid, group_id FROM DEDUP('%s', 3, 0, 4) ORDER BY rid", ds))
			if g, w := strings.Join(rowStrings(res), "\n"), strings.Join(got, "\n"); g != w {
				t.Errorf("DEDUP after a {%s} job:\n%s\nwant the default partition:\n%s", tc.field, g, w)
			}
			want := queued + 1
			if tc.reuse {
				want = queued
			}
			if n := s.metrics.jobsQueued.Value(); n != want {
				t.Errorf("DEDUP after a {%s} job queued %d jobs, want %d", tc.field, n-queued, want-queued)
			}
		})
	}
}

// checkNNReln asserts that a dataset's nn_reln rows are the exact
// phase-1 relation of its records under the cut and growth factor p.
func checkNNReln(t *testing.T, cl *sqlwire.Client, ds string, cut core.Cut, p float64) {
	t.Helper()
	recs := mustQuery(t, cl, fmt.Sprintf("SELECT rid, record FROM records WHERE dataset = '%s' ORDER BY rid", ds))
	keys := make([]string, len(recs.Rows))
	for i, row := range recs.Rows {
		keys[i] = row[1].S
	}
	rel, err := core.ComputeNN(nnindex.NewExact(keys, distance.Edit{}), cut, p, core.Phase1Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, row := range rel.Rows {
		for rank, nb := range row.NNList {
			want = append(want, fmt.Sprintf("%s|%d|%s|%s|%d", recs.Rows[i][0].S, rank+1,
				recs.Rows[nb.ID][0].S, sqldb.Float(nb.Dist).String(), row.NG))
		}
	}
	nn := mustQuery(t, cl, fmt.Sprintf(
		"SELECT rid, rank, neighbor_rid, distance, ng FROM nn_reln WHERE dataset = '%s' ORDER BY rid, rank", ds))
	if g, w := strings.Join(rowStrings(nn), "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("nn_reln is not the relation at p = %g:\n%s\nwant:\n%s", p, g, w)
	}
}

// clusteredNDJSON ingests a corpus large enough for the blocked pipeline
// to keep its seed blocks apart: nClusters well-separated prefixes, each
// with perCluster near-duplicate members. Inter-cluster distances are
// far too large for the sorted-neighborhood canopy to merge them, so a
// full blocked solve runs about one block solve per cluster.
func createClusteredDataset(t *testing.T, base string, nClusters, perCluster int) string {
	t.Helper()
	if nClusters > 26 {
		t.Fatalf("at most 26 clusters")
	}
	// Cluster c is a run of one letter whose length grows with c: the
	// graded lengths keep clusters apart in the guard's pivot projection
	// (so its reach estimates stay tight and the blocked pipeline keeps
	// one block per cluster), and consecutive records are exact twins, so
	// every cluster contributes real duplicate groups.
	var sb strings.Builder
	for c := 0; c < nClusters; c++ {
		name := strings.Repeat(string(rune('a'+c)), 10+10*c)
		for i := 0; i < perCluster; i++ {
			fmt.Fprintf(&sb, "[%q,%q]\n", name, fmt.Sprintf("take %d", i/2))
		}
	}
	var info DatasetInfo
	if code := doJSON(t, "POST", base+"/v1/datasets", "application/json",
		`{"name":"clusters"}`, &info); code != http.StatusCreated {
		t.Fatalf("create dataset: status %d", code)
	}
	var app appendResponse
	if code := doJSON(t, "POST", base+"/v1/datasets/"+info.ID+"/records",
		"application/x-ndjson", sb.String(), &app); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	if app.Records != nClusters*perCluster {
		t.Fatalf("append: %d records, want %d", app.Records, nClusters*perCluster)
	}
	return info.ID
}

// TestSQLPushdownReducesBlocks asserts the point of predicate pushdown:
// an equality predicate on block_key restricts the blocked solve (fewer
// block solves than the full pipeline runs) while returning exactly the
// full partition's rows for the selected key.
func TestSQLPushdownReducesBlocks(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createClusteredDataset(t, ts.URL, 12, 6)
	cl := dialSQL(t, startSQL(t, s), "", "")

	// Every cluster member shares its cluster's block key.
	recs := mustQuery(t, cl, fmt.Sprintf("SELECT rid, block_key FROM records WHERE dataset = '%s' ORDER BY rid", dsID))
	key := recs.Rows[0][1].S
	if key == "" || recs.Rows[5][1].S != key || recs.Rows[6][1].S == key {
		t.Fatalf("cluster block keys off: %v / %v / %v", recs.Rows[0][1], recs.Rows[5][1], recs.Rows[6][1])
	}

	// Restricted solve via pushdown; count its block solves from zero.
	restricted := mustQuery(t, cl, fmt.Sprintf(
		"SELECT rid, group_id FROM DEDUP('%s', 3, 0, 4) WHERE block_key = '%s' ORDER BY rid", dsID, key))
	restrictedSolves := s.metrics.blocksSolved.Value()
	if restrictedSolves < 1 {
		t.Fatalf("restricted DEDUP ran %d block solves, want >= 1", restrictedSolves)
	}
	if len(restricted.Rows) == 0 {
		t.Fatal("restricted DEDUP returned no rows")
	}

	// The same cached result answers a repeat without solving again.
	mustQuery(t, cl, fmt.Sprintf(
		"SELECT rid, group_id FROM DEDUP('%s', 3, 0, 4) WHERE block_key = '%s' ORDER BY rid", dsID, key))
	if v := s.metrics.blocksSolved.Value(); v != restrictedSolves {
		t.Errorf("repeat restricted DEDUP solved again: %d -> %d", restrictedSolves, v)
	}

	// Full blocked pipeline over REST, same sweep point.
	var st JobStatus
	body := fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"blocked":true}`, dsID)
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", "application/json", body, &st); code != http.StatusAccepted {
		t.Fatalf("submit blocked: status %d", code)
	}
	waitForState(t, ts.URL, st.ID, StateDone)
	fullSolves := s.metrics.blocksSolved.Value() - restrictedSolves
	if 2*restrictedSolves > fullSolves {
		t.Errorf("pushdown did not measurably reduce work: restricted %d block solves, full %d", restrictedSolves, fullSolves)
	}

	// The restricted rows are exactly the full partition's rows for the
	// key — the exactness half of the pushdown contract.
	full := mustQuery(t, cl, fmt.Sprintf(
		"SELECT rid, block_key, group_id FROM DEDUP('%s', 3, 0, 4) ORDER BY rid", dsID))
	var want []string
	for _, row := range full.Rows {
		if !row[1].Null && row[1].S == key {
			want = append(want, row[0].S+"|"+row[2].S)
		}
	}
	if g, w := strings.Join(rowStrings(restricted), "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("restricted rows diverge from full partition:\n%s\nwant:\n%s", g, w)
	}
}

// TestSQLMaxRowsAndMetrics covers the bounded-result contract (ERR 4001,
// never a silent truncation) and the observability satellites: sql_*
// series in the JSON map and the Prometheus exposition, and slow SQL
// statements landing on /debug/slowops with their query text.
func TestSQLMaxRowsAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SQLMaxRows: 5, SlowQuery: time.Nanosecond})
	dsID := createSeedDataset(t, ts.URL)
	cl := dialSQL(t, startSQL(t, s), "", "")

	// 10 records over a 5-row cap: a typed ERR, not a truncated set.
	_, err := cl.Query(fmt.Sprintf("SELECT rid FROM records WHERE dataset = '%s'", dsID))
	var se *sqlwire.SQLError
	if !errors.As(err, &se) {
		t.Fatalf("over-cap query: err = %v, want *sqlwire.SQLError", err)
	}
	if se.Code != sqlwire.ErrCodeMaxRows {
		t.Errorf("code = %d, want %d", se.Code, sqlwire.ErrCodeMaxRows)
	}
	if !strings.HasPrefix(se.Message, "max_rows_exceeded") {
		t.Errorf("message = %q, want max_rows_exceeded prefix", se.Message)
	}

	// Small results still flow.
	if res := mustQuery(t, cl, "SELECT dataset FROM datasets"); len(res.Rows) != 1 {
		t.Errorf("datasets rows = %d, want 1", len(res.Rows))
	}

	m := metricsJSON(t, ts.URL)
	if v, _ := m["sql_connections"].(float64); v < 1 {
		t.Errorf("sql_connections = %v, want >= 1 while connected", m["sql_connections"])
	}
	if v, _ := m["sql_queries"].(float64); v < 2 {
		t.Errorf("sql_queries = %v, want >= 2", m["sql_queries"])
	}
	if v, _ := m["sql_errors"].(float64); v < 1 {
		t.Errorf("sql_errors = %v, want >= 1", m["sql_errors"])
	}
	if v, _ := m["sql_rows_returned"].(float64); v < 1 {
		t.Errorf("sql_rows_returned = %v, want >= 1", m["sql_rows_returned"])
	}
	hist, ok := m["sql_query_duration_ms"].(map[string]any)
	if !ok {
		t.Fatalf("sql_query_duration_ms = %v", m["sql_query_duration_ms"])
	}
	if count, _ := hist["count"].(float64); count < 2 {
		t.Errorf("sql_query_duration_ms count = %v", hist["count"])
	}

	// Prometheus exposition renders the same series as dedupd_sql_*.
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prom := string(body)
	for _, want := range []string{
		"dedupd_sql_connections",
		"dedupd_sql_queries_total",
		"dedupd_sql_rows_returned_total",
		"dedupd_sql_errors_total",
		"dedupd_sql_query_duration_ms_bucket",
		`dedupd_slow_ops_total{kind="sql"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %s", want)
		}
	}

	// Every statement beat the nanosecond threshold: the slow-op ring
	// holds sql entries carrying the statement text.
	var slow slowOpsResponse
	if code := doJSON(t, "GET", ts.URL+"/debug/slowops", "", "", &slow); code != http.StatusOK {
		t.Fatalf("slowops: status %d", code)
	}
	var sawSQL bool
	for _, op := range slow.SlowOps {
		if op.Kind == "sql" && strings.Contains(op.Query, "SELECT") {
			sawSQL = true
			if op.RequestID == "" {
				t.Error("sql slow op has no request id")
			}
		}
	}
	if !sawSQL {
		t.Errorf("no sql slow op with query text in %+v", slow.SlowOps)
	}
}

// TestSlowSQLTextCutsAtRuneBoundary pins the slow-op record of a
// statement longer than maxSlowQueryLen: the text is cut at a rune
// boundary, so what precedes the ellipsis is a prefix of the statement.
// A cut inside a multi-byte rune would leave a stray byte there.
func TestSlowSQLTextCutsAtRuneBoundary(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SlowQuery: time.Nanosecond})
	cl := dialSQL(t, startSQL(t, s), "", "")
	stmt := "SELECT 'x" + strings.Repeat("é", 300) + "'"
	_, _ = cl.Query(stmt) // recorded as slow whether it succeeds or fails

	var slow slowOpsResponse
	if code := doJSON(t, "GET", ts.URL+"/debug/slowops", "", "", &slow); code != http.StatusOK {
		t.Fatalf("slowops: status %d", code)
	}
	for _, op := range slow.SlowOps {
		if op.Kind != "sql" {
			continue
		}
		q, cut := strings.CutSuffix(op.Query, "…")
		if !cut {
			t.Fatalf("query of %d bytes kept whole: %q", len(stmt), op.Query)
		}
		if !strings.HasPrefix(stmt, q) {
			t.Errorf("truncated query is not a prefix of the statement: %q", op.Query)
		}
		return
	}
	t.Fatalf("no sql slow op in %+v", slow.SlowOps)
}

// TestSQLAuth exercises mysql_native_password gating.
func TestSQLAuth(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, SQLUser: "ops", SQLPassword: "s3cret"})
	addr := startSQL(t, s)

	if cl, err := sqlwire.Dial(addr, "ops", "wrong", ""); err == nil {
		cl.Close()
		t.Fatal("wrong password accepted")
	}
	if cl, err := sqlwire.Dial(addr, "intruder", "s3cret", ""); err == nil {
		cl.Close()
		t.Fatal("wrong user accepted")
	}
	cl := dialSQL(t, addr, "ops", "s3cret")
	if err := cl.Ping(); err != nil {
		t.Fatalf("authed ping: %v", err)
	}
}

// TestSQLScratchTablesPerConnection: each connection owns its sqldb
// session — scratch tables do not leak across connections, and a
// reconnect starts clean.
func TestSQLScratchTablesPerConnection(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	addr := startSQL(t, s)

	a := dialSQL(t, addr, "", "")
	b := dialSQL(t, addr, "", "")
	if _, err := a.Query("CREATE TABLE scratch (id INT)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := a.Query("INSERT INTO scratch VALUES (42)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res := mustQuery(t, a, "SELECT id FROM scratch"); len(res.Rows) != 1 {
		t.Errorf("owner sees %d rows, want 1", len(res.Rows))
	}
	if _, err := b.Query("SELECT id FROM scratch"); err == nil {
		t.Error("scratch table visible from another connection")
	}
}
