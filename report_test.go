package fuzzydup

import (
	"strings"
	"testing"

	"fuzzydup/internal/dataset"
	"fuzzydup/internal/obs"
)

func reportRecords() []Record {
	return []Record{
		{"The Doors", "LA Woman"},
		{"Doors", "LA Woman"},
		{"Led Zeppelin", "Houses of the Holy"},
		{"Led Zeppellin", "Houses of the Holy"},
		{"Miles Davis", "Kind of Blue"},
		{"John Coltrane", "Giant Steps"},
		{"Joni Mitchell", "Blue"},
		{"Stevie Wonder", "Innervisions"},
	}
}

func TestRunReportCacheSemantics(t *testing.T) {
	d, err := New(reportRecords(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := d.GroupsBySize(3, 4); err != nil {
		t.Fatal(err)
	}
	first := d.LastReport()
	if first.Solves != 1 || first.CacheComputes != 1 || first.CacheHits != 0 {
		t.Fatalf("first solve report: %+v", first)
	}
	if first.Lookups != int64(len(reportRecords())) {
		t.Errorf("lookups = %d, want %d", first.Lookups, len(reportRecords()))
	}
	if first.DistanceCalls == 0 || first.IndexProbes == 0 {
		t.Errorf("first solve did no counted work: %+v", first)
	}
	if first.Groups == 0 || first.DuplicateGroups == 0 {
		t.Errorf("partition stats missing: %+v", first)
	}

	// A narrower K is a pure cache hit: no phase-1 work, no distance
	// computations — the CacheStats semantics the report documents.
	if _, err := d.GroupsBySize(2, 4); err != nil {
		t.Fatal(err)
	}
	second := d.LastReport()
	if second.CacheHits != 1 || second.CacheComputes != 0 {
		t.Fatalf("second solve should hit the cache: %+v", second)
	}
	if second.DistanceCalls != 0 || second.Lookups != 0 || second.IndexProbes != 0 {
		t.Errorf("cached solve recomputed: %+v", second)
	}

	// The cumulative report ties out with CacheStats.
	total := d.Report()
	computes, hits := d.CacheStats()
	if total.Solves != 2 || total.CacheComputes != computes || total.CacheHits != hits {
		t.Errorf("cumulative report %+v vs CacheStats (%d, %d)", total, computes, hits)
	}
	if total.DistanceCalls != first.DistanceCalls {
		t.Errorf("total distance calls %d, want %d (cache hit added none)",
			total.DistanceCalls, first.DistanceCalls)
	}

	if s := total.String(); !strings.Contains(s, "distance calls") || !strings.Contains(s, "phase2") {
		t.Errorf("report String(): %q", s)
	}
}

func TestTracerSpansEmitted(t *testing.T) {
	col := &obs.Collector{}
	d, err := New(reportRecords(), Options{Tracer: &obs.Tracer{Sink: col}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GroupsBySize(3, 4); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"dedup.solve/phase1", "dedup.solve/phase2", "dedup.solve"} {
		if _, ok := col.Find(path); !ok {
			t.Errorf("span %q not emitted; got %+v", path, col.Spans())
		}
	}
	p1, _ := col.Find("dedup.solve/phase1")
	if p1.Counters["lookups"] != int64(len(reportRecords())) {
		t.Errorf("phase1 span lookups = %v", p1.Counters)
	}
	root, _ := col.Find("dedup.solve")
	if root.Counters["distance_calls"] == 0 {
		t.Errorf("root span distance_calls missing: %v", root.Counters)
	}
}

// TestRunReportUseSQL keeps the SQL phase-2 path reporting the partition
// shape even though candidate counters are unavailable there.
func TestRunReportUseSQL(t *testing.T) {
	d, err := New(reportRecords(), Options{UseSQL: true})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := d.GroupsBySize(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := d.LastReport()
	if rep.Groups != len(groups) || rep.DuplicateGroups == 0 {
		t.Errorf("SQL-path report %+v for %d groups", rep, len(groups))
	}
}

// TestDistanceCallsCountKernelVerifications pins the counting rule of
// RunReport.DistanceCalls: the exact index verifies most candidates with
// a bounded kernel that bypasses the metric, and those verifications are
// distances measured all the same. A report that counted metric calls
// alone would read near zero on every edit-metric solve.
func TestDistanceCallsCountKernelVerifications(t *testing.T) {
	recs := recordsOf(dataset.Census(dataset.Config{Size: 400, Seed: 1}))
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"pruned", Options{Index: IndexPruned}},
		{"blocked", Options{Blocking: &BlockingOptions{}}},
	} {
		d, err := New(recs, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		calls0 := d.counter.Calls()
		if _, err := d.GroupsBySize(4, 4); err != nil {
			t.Fatal(err)
		}
		rep := d.LastReport()
		metricCalls := d.counter.Calls() - calls0
		if rep.Phase1Candidates == 0 {
			t.Errorf("%s: no kernel verifications; the certified scan did not engage: %+v", tc.name, rep)
		}
		if rep.DistanceCalls == 0 || rep.DistanceCalls != rep.Phase1Candidates+metricCalls {
			t.Errorf("%s: DistanceCalls = %d, want Phase1Candidates %d + metric calls %d",
				tc.name, rep.DistanceCalls, rep.Phase1Candidates, metricCalls)
		}
	}
}
