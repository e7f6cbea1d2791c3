package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fuzzydup/internal/sqldb"
)

// Tests of the SQL rows cached per published snapshot: they are shared
// read-only between sessions, built once, replaced on republish and
// released with the dataset.

// TestSQLRowsTwoSessions reads the cached tables from two wire sessions
// at once. Both get the single-session answer, and under -race neither
// session may write the shared rows, not even to store back a value
// whose type already matches its column.
func TestSQLRowsTwoSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	runJob(t, ts.URL, fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4]}`, dsID))
	addr := startSQL(t, s)
	warm := dialSQL(t, addr, "", "")
	key := mustQuery(t, warm, fmt.Sprintf("SELECT block_key FROM records WHERE dataset = '%s' AND rid = 5", dsID)).Rows[0][0].S

	queries := []string{
		"SELECT * FROM nn_reln",
		"SELECT * FROM dup_groups",
		fmt.Sprintf("SELECT * FROM DEDUP('%s', 3, 0, 4)", dsID),
		fmt.Sprintf("SELECT * FROM DEDUP('%s', 3, 0, 4) WHERE block_key = '%s'", dsID, key),
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = strings.Join(rowStrings(mustQuery(t, warm, q)), "\n")
		if want[i] == "" {
			t.Fatalf("%s: no rows", q)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl := dialSQL(t, addr, "", "")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i, q := range queries {
					res, err := cl.Query(q)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if got := strings.Join(rowStrings(res), "\n"); got != want[i] {
						t.Errorf("%s: concurrent answer differs:\n%s\nwant:\n%s", q, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSQLRowsConcurrentFirstReaders starts many readers of a fresh
// snapshot at once: each table's rows are built once, and every reader
// gets those same rows.
func TestSQLRowsConcurrentFirstReaders(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	runJob(t, ts.URL, fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4]}`, dsID))
	cat := s.sqlCatalog

	reads := map[string]func() ([][]sqldb.Value, error){
		"DEDUP": func() ([][]sqldb.Value, error) {
			args := []sqldb.Value{sqldb.Text(dsID), sqldb.Int(3), sqldb.Int(0), sqldb.Int(4)}
			return (&dedupFunc{cat}).Invoke(context.Background(), args, nil, 0)
		},
		"dup_groups": func() ([][]sqldb.Value, error) {
			return (&dupGroupsTable{cat}).Rows(context.Background(), nil, 0)
		},
		"nn_reln": func() ([][]sqldb.Value, error) {
			return (&nnRelnTable{cat}).Rows(context.Background(), nil, 0)
		},
	}
	const readers = 8
	got := make(map[string][][][]sqldb.Value)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, read := range reads {
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := read()
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				mu.Lock()
				got[name] = append(got[name], rows)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	for name, sets := range got {
		if len(sets) != readers || len(sets[0]) == 0 {
			t.Fatalf("%s: %d of %d readers answered, or with no rows", name, len(sets), readers)
		}
		for _, rows := range sets[1:] {
			if len(rows) != len(sets[0]) || &rows[0] != &sets[0][0] {
				t.Errorf("%s: readers got different row sets; want one shared build", name)
				break
			}
		}
	}
	if s.metrics.jobsQueued.Value() != 1 {
		t.Errorf("jobs queued = %d, want 1: DEDUP() should reuse the snapshot", s.metrics.jobsQueued.Value())
	}
}

// TestSQLRowsFollowRepublish: after a mutation and a second job, DEDUP()
// and dup_groups answer from the new snapshot, not the first one's rows.
func TestSQLRowsFollowRepublish(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	spec := fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4]}`, dsID)
	runJob(t, ts.URL, spec)
	cl := dialSQL(t, startSQL(t, s), "", "")
	dedup := fmt.Sprintf("SELECT rid, group_id FROM DEDUP('%s', 3, 0, 4) ORDER BY rid", dsID)
	groups := fmt.Sprintf("SELECT rid, group_id FROM dup_groups WHERE dataset = '%s' ORDER BY rid", dsID)
	for _, q := range []string{dedup, groups} {
		if n := len(mustQuery(t, cl, q).Rows); n != 10 {
			t.Fatalf("%s: %d rows before the mutation, want 10", q, n)
		}
	}

	var app appendResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/datasets/"+dsID+"/records",
		"application/x-ndjson", `["Stevie Wonder","Innervisions!"]`+"\n", &app); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	runJob(t, ts.URL, spec)
	queued := s.metrics.jobsQueued.Value()
	for _, q := range []string{dedup, groups} {
		rows := rowStrings(mustQuery(t, cl, q))
		// Stevie Wonder (rid 10) and its new near-twin (rid 11) form a
		// group labelled by the smaller rid.
		if len(rows) != 11 || rows[9] != "10|10" || rows[10] != "11|10" {
			t.Errorf("%s after republish: %v, want 11 rows ending 10|10, 11|10", q, rows)
		}
	}
	if s.metrics.jobsQueued.Value() != queued {
		t.Error("DEDUP() after the second job submitted another; want the new snapshot reused")
	}
}

// TestSQLRowsReleasedOnDelete: deleting a dataset leaves no SQL rows
// cached for it, neither the snapshot's nor restricted DEDUP() results.
func TestSQLRowsReleasedOnDelete(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	dsID := createSeedDataset(t, ts.URL)
	runJob(t, ts.URL, fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4]}`, dsID))
	cl := dialSQL(t, startSQL(t, s), "", "")
	key := mustQuery(t, cl, fmt.Sprintf("SELECT block_key FROM records WHERE dataset = '%s' AND rid = 5", dsID)).Rows[0][0].S
	for _, q := range []string{
		"SELECT * FROM nn_reln",
		"SELECT * FROM dup_groups",
		fmt.Sprintf("SELECT * FROM DEDUP('%s', 3, 0, 4)", dsID),
		fmt.Sprintf("SELECT * FROM DEDUP('%s', 3, 0, 4) WHERE block_key = '%s'", dsID, key),
	} {
		mustQuery(t, cl, q)
	}
	built := func(l *lazyRows) bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.built
	}
	pub := s.engine.snaps.current(dsID)
	if pub == nil || !built(&pub.dedup) || !built(&pub.groups) || !built(&pub.nn) {
		t.Fatal("reads did not build the snapshot's rows")
	}
	cached := func() int {
		s.sqlCatalog.mu.Lock()
		defer s.sqlCatalog.mu.Unlock()
		n := 0
		for fp := range s.sqlCatalog.dedupCache {
			if strings.HasPrefix(fp, dsID+"|") {
				n++
			}
		}
		return n
	}
	if cached() != 1 {
		t.Fatalf("restricted DEDUP results cached = %d, want 1", cached())
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/datasets/"+dsID, "", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if _, ok := s.engine.snaps.entries.Load(dsID); ok {
		t.Error("registry still holds the deleted dataset's publication")
	}
	if n := cached(); n != 0 {
		t.Errorf("restricted DEDUP results cached after delete = %d, want 0", n)
	}
}
