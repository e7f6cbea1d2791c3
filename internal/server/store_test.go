package server

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"fuzzydup"
)

func TestStoreAppendNDJSON(t *testing.T) {
	s := newStore(100, nil)
	info, err := s.Create("t", nil)
	if err != nil {
		t.Fatal(err)
	}

	added, rids, info, err := s.AppendNDJSON(info.ID, strings.NewReader(
		"[\"a\",\"b\"]\n\n  [\"c\"]  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || info.Records != 2 {
		t.Fatalf("added %d, total %d", added, info.Records)
	}
	if len(rids) != 2 || rids[0] != 1 || rids[1] != 2 {
		t.Fatalf("rids = %v", rids)
	}

	recs, err := s.Snapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0][0] != "a" || recs[1][0] != "c" {
		t.Fatalf("snapshot %v", recs)
	}
}

func TestStoreAppendNDJSONRejectsAtomically(t *testing.T) {
	s := newStore(100, nil)
	info, _ := s.Create("t", nil)

	cases := map[string]string{
		"malformed":    "[\"ok\"]\n{oops\n",
		"empty record": "[\"ok\"]\n[]\n",
		"wrong type":   "[\"ok\"]\n{\"a\":1}\n",
		"scalar":       "42\n",
	}
	for name, body := range cases {
		_, _, _, err := s.AppendNDJSON(info.ID, strings.NewReader(body))
		var pe *parseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want parseError", name, err)
		}
		if got, _ := s.Get(info.ID); got.Records != 0 {
			t.Errorf("%s: partial commit of %d records", name, got.Records)
		}
	}
}

func TestStoreLineTooLong(t *testing.T) {
	s := newStore(0, nil)
	info, _ := s.Create("t", nil)
	long := "[\"" + strings.Repeat("x", maxNDJSONLine+10) + "\"]"
	_, _, _, err := s.AppendNDJSON(info.ID, strings.NewReader(long))
	var pe *parseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want parseError", err)
	}
}

func TestStoreRecordCap(t *testing.T) {
	s := newStore(3, nil)
	if _, err := s.Create("t", []fuzzydup.Record{{"a"}, {"b"}, {"c"}, {"d"}}); !errors.Is(err, ErrDatasetCap) {
		t.Errorf("create above cap: %v, want ErrDatasetCap", err)
	}
	info, err := s.Create("t", []fuzzydup.Record{{"a"}, {"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Append(info.ID, []fuzzydup.Record{{"c"}, {"d"}}); !errors.Is(err, ErrDatasetCap) {
		t.Errorf("append above cap: %v, want ErrDatasetCap", err)
	}
	_, _, _, err = s.AppendNDJSON(info.ID, strings.NewReader("[\"c\"]\n[\"d\"]\n"))
	if !errors.Is(err, ErrDatasetCap) {
		t.Errorf("ndjson above cap: %v, want ErrDatasetCap", err)
	}
	if got, _ := s.Get(info.ID); got.Records != 2 {
		t.Errorf("records = %d after rejected appends", got.Records)
	}
}

func TestStoreMissingDataset(t *testing.T) {
	s := newStore(0, nil)
	var nf *notFoundError
	if _, _, _, err := s.AppendNDJSON("ds-000001", strings.NewReader("[\"a\"]")); !errors.As(err, &nf) {
		t.Errorf("append: %v", err)
	}
	if _, err := s.Snapshot("nope"); !errors.As(err, &nf) {
		t.Errorf("snapshot: %v", err)
	}
	if err := s.Delete("nope"); !errors.As(err, &nf) {
		t.Errorf("delete: %v", err)
	}
}

// TestStoreRecordMutations covers rid assignment, delete, replace, and
// the list view: rids are dataset-scoped, monotonic, and never reused.
func TestStoreRecordMutations(t *testing.T) {
	s := newStore(0, nil)
	info, err := s.Create("t", []fuzzydup.Record{{"a"}, {"b"}})
	if err != nil {
		t.Fatal(err)
	}
	_, rids, err := s.Append(info.ID, []fuzzydup.Record{{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 || rids[0] != 3 {
		t.Fatalf("append rids = %v", rids)
	}

	if _, err := s.RemoveRecord(info.ID, 2); err != nil {
		t.Fatal(err)
	}
	// The freed rid is not reissued.
	_, rids, err = s.Append(info.ID, []fuzzydup.Record{{"d"}})
	if err != nil {
		t.Fatal(err)
	}
	if rids[0] != 4 {
		t.Fatalf("rid after delete = %d, want 4", rids[0])
	}

	if _, err := s.ReplaceRecord(info.ID, 1, fuzzydup.Record{"a2"}); err != nil {
		t.Fatal(err)
	}
	items, err := s.ListRecords(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []RecordItem{
		{RID: 1, Record: fuzzydup.Record{"a2"}},
		{RID: 3, Record: fuzzydup.Record{"c"}},
		{RID: 4, Record: fuzzydup.Record{"d"}},
	}
	if len(items) != len(want) {
		t.Fatalf("items = %v", items)
	}
	for i := range want {
		if items[i].RID != want[i].RID || items[i].Record[0] != want[i].Record[0] {
			t.Fatalf("items[%d] = %+v, want %+v", i, items[i], want[i])
		}
	}

	recs, ridsSnap, err := s.SnapshotRIDs(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || len(ridsSnap) != 3 || ridsSnap[1] != 3 {
		t.Fatalf("snapshot %v %v", recs, ridsSnap)
	}

	var nf *notFoundError
	if _, err := s.RemoveRecord(info.ID, 99); !errors.As(err, &nf) {
		t.Errorf("remove missing rid: %v", err)
	}
	if _, err := s.ReplaceRecord(info.ID, 99, fuzzydup.Record{"x"}); !errors.As(err, &nf) {
		t.Errorf("replace missing rid: %v", err)
	}
	var pe *parseError
	if _, err := s.ReplaceRecord(info.ID, 1, fuzzydup.Record{}); !errors.As(err, &pe) {
		t.Errorf("replace with empty record: %v", err)
	}
	if _, err := s.RemoveRecord("nope", 1); !errors.As(err, &nf) {
		t.Errorf("remove on missing dataset: %v", err)
	}
}

func TestJobSpecNormalize(t *testing.T) {
	spec := JobSpec{Dataset: "ds-000001", Mode: "both", K: []int{3, 2}, Theta: []float64{0.3, 0.2}, C: []float64{4}}
	pl, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	points := pl.points
	if len(points) != 4 {
		t.Fatalf("points = %v", points)
	}
	// Widest-first execution order: largest K, then largest theta.
	order := sweepOrder(points)
	first := points[order[0]]
	if first.K != 3 || first.Theta != 0.3 {
		t.Errorf("first executed point = %+v", first)
	}

	for _, index := range []string{"nope", "vptree", "minhash"} {
		if _, err := (&JobSpec{Dataset: "x", Index: index}).normalize(); err == nil {
			t.Errorf("index %q accepted", index)
		}
	}
	// "pruned" is the exact index's former name: every solver takes it.
	for _, spec := range []JobSpec{
		{Dataset: "x", Index: "pruned"},
		{Dataset: "x", Index: "pruned", Blocked: true},
		{Dataset: "x", Index: "pruned", Incremental: true},
		{Dataset: "x", Index: "pruned", Distributed: true},
	} {
		if _, err := spec.normalize(); err != nil {
			t.Errorf("%+v rejected: %v", spec, err)
		}
	}
	big := JobSpec{Dataset: "x", Mode: "both",
		K: []int{2, 3, 4, 5, 6}, Theta: []float64{0.1, 0.2, 0.3, 0.4, 0.5}, C: []float64{2, 3, 4}}
	if _, err := big.normalize(); err == nil {
		t.Error("75-point sweep accepted above maxSweepPoints")
	}
}

// FuzzJobSpec holds validation to what the solvers accept: whenever
// normalize accepts a spec, every sweep point solves without error on a
// small corpus, through the options and the facade constructor its
// solver uses. A distributed spec solves locally as the blocked solve it
// runs on the cluster.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"dataset":"ds"}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4]}`,
		`{"dataset":"ds","k":[3,2]}`,
		`{"dataset":"ds","k":[4,3,2]}`,
		`{"dataset":"ds","k":[3],"c":[4,3]}`,
		`{"dataset":"ds","mode":"both","k":[3,2],"theta":[0.3,0.2],"c":[4]}`,
		`{"dataset":"ds","mode":"size","k":[3,2],"c":[4],"blocked":true,"parallel":2}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"blocked":true,"index":"exact"}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"blocked":true,"index":"qgram"}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"blocked":true,"use_sql":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"blocked":true,"incremental":true}`,
		`{"dataset":"ds","mode":"size","k":[3,2],"c":[4],"distributed":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"metric":"fms","distributed":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"incremental":true,"distributed":true}`,
		`{"dataset":"ds","incremental":true}`,
		`{"dataset":"ds","mode":"size","k":[3,2],"c":[4],"incremental":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"metric":"cosine","incremental":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"index":"qgram","incremental":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"use_sql":true,"incremental":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"index":"pruned"}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"agg":"max2"}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"p":8}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"minimal_compact":true}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"index":"qgram"}`,
		`{"dataset":"ds","mode":"size","k":[3],"c":[4],"use_sql":true}`,
		`{"dataset":"ds","metric":"nope"}`,
		`{"dataset":"ds","mode":"nope"}`,
		`{"dataset":"ds","k":[1]}`,
		`{"dataset":"ds","c":[0.5]}`,
		`{"dataset":"ds","mode":"diameter","theta":[2]}`,
		`{"dataset":"ds","p":-1}`,
		`{"dataset":"ds","agg":"median"}`,
	} {
		f.Add(body)
	}
	corpus := []fuzzydup.Record{
		{"The Doors", "LA Woman"}, {"Doors", "LA Woman"},
		{"Led Zeppelin", "Houses of the Holy"}, {"Led Zeppellin", "Houses of the Holy"},
		{"Miles Davis", "Kind of Blue"}, {"Joni Mitchell", "Blue"},
	}
	f.Fuzz(func(t *testing.T, body string) {
		var spec JobSpec
		if json.Unmarshal([]byte(body), &spec) != nil {
			return
		}
		pl, err := spec.normalize()
		if err != nil {
			return
		}
		opts := spec.options(pl.solver)
		for _, pt := range pl.points {
			if pl.solver == solveIncremental {
				_, err = fuzzydup.NewIncremental(corpus, pt.incremental(), opts)
			} else {
				var d *fuzzydup.Deduper
				if d, err = fuzzydup.New(corpus, opts); err == nil {
					_, err = d.GroupsBySizeAndDiameterCtx(context.Background(), pt.K, pt.Theta, pt.C)
				}
			}
			if err != nil {
				t.Fatalf("accepted spec %s fails at %+v: %v", body, pt, err)
			}
		}
	})
}
