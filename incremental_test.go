package fuzzydup

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// mutateName applies one random character edit, producing a fuzzy
// duplicate.
func mutateName(r *rand.Rand, s string) string {
	if len(s) == 0 {
		return "x"
	}
	b := []byte(s)
	i := r.Intn(len(b))
	switch r.Intn(3) {
	case 0:
		b[i] = byte('a' + r.Intn(26))
	case 1:
		b = append(b[:i], b[i+1:]...)
	default:
		b = append(b[:i+1], b[i:]...)
	}
	return string(b)
}

var nameBases = []string{
	"john smith seattle", "jon smyth seatle", "mary jones portland",
	"robert miller dallas", "roberto miler dalas", "lisa chen boston",
	"james wilson chicago", "patricia brown austin", "michael davis denver",
	"linda garcia phoenix", "william martinez tucson", "elizabeth lee omaha",
}

func randomRecord(r *rand.Rand) Record {
	base := nameBases[r.Intn(len(nameBases))]
	if r.Intn(2) == 0 {
		base = mutateName(r, base)
	}
	return Record{base}
}

// liveDense returns the live records in ascending stable-ID order along
// with the stable→dense index mapping.
func liveDense(inc *Incremental) ([]Record, map[int]int) {
	ids := inc.IDs()
	recs := make([]Record, len(ids))
	dense := make(map[int]int, len(ids))
	for i, id := range ids {
		r, ok := inc.Record(id)
		if !ok {
			panic(fmt.Sprintf("live id %d has no record", id))
		}
		recs[i] = r
		dense[id] = i
	}
	return recs, dense
}

func checkAgainstDeduper(t *testing.T, inc *Incremental, spec IncrementalSpec, opts Options, context string) {
	t.Helper()
	recs, dense := liveDense(inc)
	var got Groups
	for _, g := range inc.Groups() {
		m := make([]int, len(g))
		for i, id := range g {
			m[i] = dense[id]
		}
		got = append(got, m)
	}
	if len(recs) == 0 {
		if len(got) != 0 {
			t.Fatalf("%s: empty dataset has groups %v", context, got)
		}
		return
	}
	d, err := New(recs, opts)
	if err != nil {
		t.Fatalf("%s: New: %v", context, err)
	}
	var want Groups
	switch {
	case spec.MaxSize > 0 && spec.Theta > 0:
		want, err = d.GroupsBySizeAndDiameter(spec.MaxSize, spec.Theta, spec.C)
	case spec.MaxSize > 0:
		want, err = d.GroupsBySize(spec.MaxSize, spec.C)
	default:
		want, err = d.GroupsByDiameter(spec.Theta, spec.C)
	}
	if err != nil {
		t.Fatalf("%s: batch solve: %v", context, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental %v != batch %v\nrecords: %v", context, got, want, recs)
	}
}

// TestIncrementalMatchesDeduper drives the public facade with randomized
// mutation sequences over fuzzy name records under edit distance and
// checks, after every operation and under both cut families, that
// Incremental.Groups equals the Deduper solve of the live records.
func TestIncrementalMatchesDeduper(t *testing.T) {
	sequences := 25
	if testing.Short() {
		sequences = 6
	}
	specs := []IncrementalSpec{
		{MaxSize: 3, C: 3},
		{Theta: 0.35, C: 3},
	}
	for si, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("spec%d", si), func(t *testing.T) {
			for seq := 0; seq < sequences; seq++ {
				r := rand.New(rand.NewSource(int64(si*1000+seq) + 31))
				opts := Options{MinimalCompact: seq%2 == 0}
				var init []Record
				for i := 0; i < 12+r.Intn(10); i++ {
					init = append(init, randomRecord(r))
				}
				inc, err := NewIncremental(init, spec, opts)
				if err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
				checkAgainstDeduper(t, inc, spec, opts, fmt.Sprintf("seq %d build", seq))
				for o := 0; o < 6; o++ {
					ids := inc.IDs()
					op := r.Intn(3)
					if len(ids) == 0 {
						op = 0
					}
					switch op {
					case 0:
						inc.Insert(randomRecord(r))
					case 1:
						if err := inc.Delete(ids[r.Intn(len(ids))]); err != nil {
							t.Fatal(err)
						}
					default:
						if err := inc.Update(ids[r.Intn(len(ids))], randomRecord(r)); err != nil {
							t.Fatal(err)
						}
					}
					checkAgainstDeduper(t, inc, spec, opts, fmt.Sprintf("seq %d op %d", seq, o))
				}
			}
		})
	}
}

// TestIncrementalRejectsUnsupported pins the constructor's refusal of
// corpus-dependent metrics and non-exact execution paths.
func TestIncrementalRejectsUnsupported(t *testing.T) {
	spec := IncrementalSpec{MaxSize: 3, C: 3}
	cases := []struct {
		name string
		opts Options
	}{
		{"fms", Options{Metric: MetricFMS}},
		{"cosine", Options{Metric: MetricCosine}},
		{"soft-tfidf", Options{Metric: MetricSoftTFIDF}},
		{"qgram index", Options{Index: IndexQGram}},
		{"sql", Options{UseSQL: true}},
		{"unknown metric", Options{Metric: "nope"}},
	}
	for _, tc := range cases {
		if _, err := NewIncremental(nil, spec, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewIncremental(nil, IncrementalSpec{C: 3}, Options{}); err == nil {
		t.Error("empty cut accepted")
	}
	if _, err := NewIncremental(nil, IncrementalSpec{MaxSize: 3, C: 1}, Options{}); err == nil {
		t.Error("c <= 1 accepted")
	}
	// The exact index may be requested explicitly.
	if _, err := NewIncremental(nil, spec, Options{Index: IndexExact}); err != nil {
		t.Errorf("exact index rejected: %v", err)
	}
}

// TestIncrementalRecordsAndRepresentative checks record round-trips and
// that the medoid matches Deduper.Representative on the same data.
func TestIncrementalRecordsAndRepresentative(t *testing.T) {
	recs := []Record{
		{"alpha", "one"}, {"alphq", "one"}, {"alpha", "onb"},
		{"zzzz", "far"},
	}
	spec := IncrementalSpec{MaxSize: 4, C: 4}
	inc, err := NewIncremental(recs, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, ok := inc.Record(i)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Record(%d) = %v, %v", i, got, ok)
		}
	}
	if _, ok := inc.Record(99); ok {
		t.Fatal("Record(99) exists")
	}
	d, err := New(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range inc.Groups() {
		if inc.Representative(g) != d.Representative(g) {
			t.Fatalf("representative of %v disagrees with Deduper", g)
		}
	}
	// Stats surface through the facade.
	id := inc.Insert(Record{"alpha", "one"})
	st := inc.LastRepair()
	if st.Op != "insert" || st.ID != id || st.Live != 5 {
		t.Fatalf("facade repair stats = %+v", st)
	}
	if err := inc.Delete(id); err != nil {
		t.Fatal(err)
	}
	if inc.Len() != 4 {
		t.Fatalf("len = %d after delete", inc.Len())
	}
}
