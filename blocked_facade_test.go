package fuzzydup

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fuzzydup/internal/obs"
)

// blockingRecords builds a numeric corpus of duplicate clusters amid
// uniform noise: zero-padded decimals whose custom metric is the scaled
// absolute difference — a true metric, so the pivot guard is sound on it.
func blockingRecords(seed int64, n int) []Record {
	r := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	for len(recs) < n {
		base := r.Intn(1000000)
		if r.Intn(3) == 0 {
			k := 2 + r.Intn(3)
			for i := 0; i < k && len(recs) < n; i++ {
				recs = append(recs, Record{fmt.Sprintf("%06d", (base+r.Intn(3))%1000000)})
			}
		} else {
			recs = append(recs, Record{fmt.Sprintf("%06d", base)})
		}
	}
	return recs
}

func blockingDist(a, b string) float64 {
	x, _ := strconv.Atoi(a)
	y, _ := strconv.Atoi(b)
	return math.Abs(float64(x-y)) / 1000000
}

// solveAll runs the three public solve entry points and returns their
// partitions, so blocked/monolithic comparisons cover every cut family.
func solveAll(t *testing.T, d *Deduper) []Groups {
	t.Helper()
	bySize, err := d.GroupsBySize(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	byDiam, err := d.GroupsByDiameter(1e-4, 3)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := d.GroupsBySizeAndDiameter(4, 1e-4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []Groups{bySize, byDiam, combined}
}

func TestBlockingMatchesMonolithic(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		recs := blockingRecords(seed, 300)
		plain, err := New(recs, Options{CustomMetric: blockingDist})
		if err != nil {
			t.Fatal(err)
		}
		want := solveAll(t, plain)
		for _, par := range []int{4, 1, 8} {
			d, err := New(recs, Options{CustomMetric: blockingDist, Parallel: par, Blocking: &BlockingOptions{}})
			if err != nil {
				t.Fatal(err)
			}
			got := solveAll(t, d)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("seed %d parallel %d solve %d: blocked partition diverges", seed, par, i)
				}
			}
			if rep := d.LastReport(); rep.BlocksSolved == 0 {
				t.Errorf("seed %d parallel %d: BlocksSolved = 0", seed, par)
			}
		}
	}
}

// TestBlockingTextMatches exercises the blocked path under the default
// normalized edit distance (not a guaranteed true metric — the default
// exhaustive guard is what keeps it exact) on the paper's corpus, with
// the constraining predicate and minimal-compact post-processing on.
func TestBlockingTextMatches(t *testing.T) {
	recs := append(table1(), reportRecords()...)
	exclude := func(a, b int) bool { return a == 0 && b == 1 }
	for _, opts := range []Options{
		{},
		{MinimalCompact: true},
		{Exclude: exclude},
	} {
		plain, err := New(recs, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.GroupsBySize(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		bopts := opts
		bopts.Parallel = 2
		bopts.Blocking = &BlockingOptions{}
		d, err := New(recs, bopts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.GroupsBySize(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opts %+v: blocked %v, want %v", opts, got, want)
		}
	}
}

func TestBlockingReport(t *testing.T) {
	recs := blockingRecords(7, 200)
	d, err := New(recs, Options{CustomMetric: blockingDist, Parallel: 4, Blocking: &BlockingOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GroupsBySize(3, 3); err != nil {
		t.Fatal(err)
	}
	rep := d.LastReport()
	if rep.Solves != 1 || rep.BlocksSolved == 0 {
		t.Fatalf("blocked report: %+v", rep)
	}
	if rep.Lookups == 0 || rep.IndexProbes == 0 || rep.DistanceCalls == 0 {
		t.Errorf("blocked solve did no counted work: %+v", rep)
	}
	if rep.Groups == 0 {
		t.Errorf("partition stats missing: %+v", rep)
	}
	if rep.CacheComputes != 0 || rep.CacheHits != 0 {
		t.Errorf("blocked path must not touch the phase-1 cache: %+v", rep)
	}
	if s := rep.String(); !strings.Contains(s, "block solves") {
		t.Errorf("String() lacks the blocked line: %q", s)
	}
	// The cumulative report accumulates the blocked counters too.
	if _, err := d.GroupsByDiameter(1e-4, 3); err != nil {
		t.Fatal(err)
	}
	total := d.Report()
	if total.Solves != 2 || total.BlocksSolved <= rep.BlocksSolved {
		t.Errorf("cumulative blocked report: %+v", total)
	}
}

func TestBlockingTracerSpans(t *testing.T) {
	col := &obs.Collector{}
	recs := blockingRecords(3, 150)
	d, err := New(recs, Options{
		CustomMetric: blockingDist,
		Tracer:       &obs.Tracer{Sink: col},
		Parallel:     2,
		Blocking:     &BlockingOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GroupsBySize(3, 3); err != nil {
		t.Fatal(err)
	}
	b, ok := col.Find("dedup.solve/blocked")
	if !ok {
		t.Fatalf("blocked span not emitted; got %+v", col.Spans())
	}
	if b.Counters["blocks"] == 0 || b.Counters["blocks_solved"] == 0 {
		t.Errorf("blocked span counters: %v", b.Counters)
	}
	root, _ := col.Find("dedup.solve")
	if root.Counters["distance_calls"] == 0 {
		t.Errorf("root span distance_calls missing: %v", root.Counters)
	}
}

func TestBlockingOnBlockSolved(t *testing.T) {
	recs := blockingRecords(5, 200)
	var calls int
	d, err := New(recs, Options{
		CustomMetric: blockingDist,
		Blocking: &BlockingOptions{OnBlockSolved: func(size int, dur time.Duration) {
			if size <= 0 || dur < 0 {
				t.Errorf("callback got size %d dur %v", size, dur)
			}
			calls++
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GroupsBySize(3, 3); err != nil {
		t.Fatal(err)
	}
	if got := d.LastReport().BlocksSolved; calls != got {
		t.Errorf("callback fired %d times, report says %d block solves", calls, got)
	}
}

func TestBlockingOptionErrors(t *testing.T) {
	recs := reportRecords()
	for _, opts := range []Options{
		{Blocking: &BlockingOptions{}, UseSQL: true},
		{Blocking: &BlockingOptions{}, Index: IndexQGram},
	} {
		if _, err := New(recs, opts); err == nil {
			t.Errorf("New with %+v should fail", opts)
		}
	}
	// The exact index, spelled explicitly or defaulted, is fine.
	if _, err := New(recs, Options{Blocking: &BlockingOptions{}, Index: IndexExact}); err != nil {
		t.Errorf("explicit exact index rejected: %v", err)
	}
}

func TestBlockingCtxCancel(t *testing.T) {
	recs := blockingRecords(9, 200)
	d, err := New(recs, Options{CustomMetric: blockingDist, Blocking: &BlockingOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.GroupsBySizeCtx(ctx, 3, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled blocked solve returned %v", err)
	}
}
