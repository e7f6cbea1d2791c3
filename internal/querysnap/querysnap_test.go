package querysnap

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"fuzzydup"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/strutil"
)

// randCorpus draws n records over a small alphabet with injected fuzzy
// duplicates so the solved partition has non-trivial groups.
func randCorpus(r *rand.Rand, n int) [][]string {
	base := []string{
		"the doors", "doors, the", "miles davis", "milesdavis",
		"john coltrane", "jon coltrane", "nina simone", "nina simon",
		"charles mingus", "thelonious monk", "telonious monk",
	}
	recs := make([][]string, 0, n)
	for len(recs) < n {
		switch r.Intn(3) {
		case 0:
			recs = append(recs, []string{base[r.Intn(len(base))]})
		case 1:
			recs = append(recs, []string{mutate(r, base[r.Intn(len(base))])})
		default:
			recs = append(recs, []string{randWord(r), randWord(r)})
		}
	}
	return recs[:n]
}

func randWord(r *rand.Rand) string {
	n := 3 + r.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(26)))
	}
	return b.String()
}

func mutate(r *rand.Rand, s string) string {
	b := []byte(s)
	for e := 1 + r.Intn(2); e > 0 && len(b) > 1; e-- {
		i := r.Intn(len(b))
		switch r.Intn(3) {
		case 0:
			b[i] = byte('a' + r.Intn(26))
		case 1:
			b = append(b[:i], append([]byte{byte('a' + r.Intn(26))}, b[i:]...)...)
		default:
			b = append(b[:i], b[i+1:]...)
		}
	}
	return string(b)
}

// buildFromSolve runs a full solve over recs and wraps the result in a
// snapshot, the way the server's job engine does.
func buildFromSolve(t *testing.T, recs [][]string, mode, metric string, k int, theta float64) *Snapshot {
	t.Helper()
	frecs := make([]fuzzydup.Record, len(recs))
	for i, rec := range recs {
		frecs[i] = fuzzydup.Record(rec)
	}
	d, err := fuzzydup.New(frecs, fuzzydup.Options{Metric: fuzzydup.Metric(metric)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var groups fuzzydup.Groups
	if mode == "size" {
		groups, err = d.GroupsBySize(k, 2)
	} else {
		groups, err = d.GroupsByDiameter(theta, 2)
	}
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	reps := make([]int, len(groups))
	for i, g := range groups {
		reps[i] = d.Representative(g)
	}
	rids := make([]int64, len(recs))
	for i := range rids {
		rids[i] = int64(i + 1)
	}
	snap, err := Build(Config{
		Dataset: "ds_test", Seq: 1, Rev: int64(len(recs)), JobID: "job_test",
		Built: time.Now(), Records: recs, RIDs: rids,
		Groups: [][]int(groups), Reps: reps,
		Params: Params{Mode: mode, K: k, Theta: theta, C: 2, Metric: metric},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return snap
}

// TestLookupMatchesSolve: for both cut families, querying every indexed
// record must return an exact match whose group is exactly the group the
// full solve assigned that record — same members, same representative.
func TestLookupMatchesSolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		mode   string
		k      int
		theta  float64
		metric string
	}{
		{mode: "size", k: 4, metric: "ed"},
		{mode: "diameter", theta: 0.35, metric: "ed"},
		{mode: "size", k: 3, metric: "damerau"},
		{mode: "diameter", theta: 0.4, metric: "jaccard"},
	} {
		recs := randCorpus(r, 60)
		snap := buildFromSolve(t, recs, tc.mode, tc.metric, tc.k, tc.theta)

		// Reconstruct record index -> solved group from the snapshot's own
		// partition accessors is circular; instead re-derive from Build's
		// inputs by querying and checking membership directly.
		for i, rec := range recs {
			res := snap.Lookup(rec, 0)
			if len(res.Matches) == 0 {
				t.Fatalf("%s/%s: record %d has no exact match", tc.mode, tc.metric, i)
			}
			found := false
			for _, m := range res.Matches {
				if m.Index == i {
					found = true
					if !containsInt(m.Group.Indexes, i) {
						t.Fatalf("record %d not a member of its own group %v", i, m.Group.Indexes)
					}
					if !containsInt64(m.Group.Members, int64(i+1)) {
						t.Fatalf("record rid %d missing from group members %v", i+1, m.Group.Members)
					}
					if m.RID != int64(i+1) {
						t.Fatalf("record %d rid = %d, want %d", i, m.RID, i+1)
					}
					if !containsInt64(m.Group.Members, m.Group.Representative) {
						t.Fatalf("representative %d outside group %v", m.Group.Representative, m.Group.Members)
					}
					if m.Group.Size != len(m.Group.Members) {
						t.Fatalf("group size %d != members %d", m.Group.Size, len(m.Group.Members))
					}
				}
			}
			if !found {
				t.Fatalf("record %d absent from its exact-match set", i)
			}
		}
	}
}

// TestLookupGroupsPartition: the groups reported across all lookups form
// exactly the solve's partition — every record in exactly one group.
func TestLookupGroupsPartition(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	recs := randCorpus(r, 80)
	snap := buildFromSolve(t, recs, "size", "ed", 5, 0)

	seen := make(map[int]int) // record index -> group id
	for i, rec := range recs {
		res := snap.Lookup(rec, 0)
		for _, m := range res.Matches {
			if m.Index != i {
				continue
			}
			for _, idx := range m.Group.Indexes {
				if g, ok := seen[idx]; ok && g != m.Group.ID {
					t.Fatalf("record %d in two groups: %d and %d", idx, g, m.Group.ID)
				}
				seen[idx] = m.Group.ID
			}
		}
	}
	if len(seen) != len(recs) {
		t.Fatalf("partition covers %d of %d records", len(seen), len(recs))
	}
}

// scored is one record's exact distance from a query in the reference
// scan.
type scored struct {
	idx  int
	dist float64
}

// linearTopK is the reference the prefilter is checked against: verify
// every record with the true metric, keep the k smallest under the same
// (distance, index) order.
func linearTopK(metric distance.Metric, keys []string, query string, k int) []scored {
	all := make([]scored, len(keys))
	for i, rk := range keys {
		all[i] = scored{idx: i, dist: metric.Distance(query, rk)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].idx < all[b].idx
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// TestCandidatesExact: the prefiltered candidate search must return
// bit-for-bit what a linear exact scan returns — same indexes, same
// distances, same order — across randomized corpora and queries, for the
// pruned metrics (ed, damerau) and a full-scan metric (jaro).
func TestCandidatesExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, metricName := range []string{"ed", "damerau", "jaro"} {
		for trial := 0; trial < 20; trial++ {
			n := 30 + r.Intn(120)
			recs := randCorpus(r, n)
			snap := buildFromSolve(t, recs, "size", metricName, 4, 0)

			keys := make([]string, n)
			for i, rec := range recs {
				keys[i] = strutil.JoinFields(rec)
			}
			metric, err := distance.ByName(metricName, keys)
			if err != nil {
				t.Fatal(err)
			}

			for q := 0; q < 10; q++ {
				query := mutate(r, keys[r.Intn(n)])
				if _, dup := snap.byKey[query]; dup {
					continue // exact-match path, not a candidate query
				}
				k := 1 + r.Intn(8)
				want := linearTopK(metric, keys, query, k)
				res := snap.Lookup([]string{query}, k)
				if len(res.Matches) != 0 {
					t.Fatalf("%s: unexpected exact match for %q", metricName, query)
				}
				if len(res.Candidates) != len(want) {
					t.Fatalf("%s: %d candidates, want %d", metricName, len(res.Candidates), len(want))
				}
				for i, c := range res.Candidates {
					if c.Index != want[i].idx || c.Distance != want[i].dist {
						t.Fatalf("%s query %q k=%d: candidate %d = (%d, %v), want (%d, %v)",
							metricName, query, k, i, c.Index, c.Distance, want[i].idx, want[i].dist)
					}
				}
				if st := res.Stats; st.Verified+st.Pruned != st.Scanned {
					t.Fatalf("%s: stats don't add up: %+v", metricName, st)
				}
				if metricName == "jaro" && res.Stats.Pruned != 0 {
					t.Fatalf("jaro must full-scan, pruned %d", res.Stats.Pruned)
				}
			}
		}
	}
}

// TestLookupEdgeCases: duplicate keys return every match; k = 0 skips
// the candidate scan; unicode keys work; a single-record corpus works.
func TestLookupEdgeCases(t *testing.T) {
	recs := [][]string{
		{"dvořák", "symphony"},
		{"dvořák", "symphony"}, // byte-identical duplicate
		{"dvorak", "symphony"},
	}
	snap := buildFromSolve(t, recs, "size", "ed", 3, 0)

	res := snap.Lookup([]string{"dvořák", "symphony"}, 5)
	if len(res.Matches) != 2 {
		t.Fatalf("identical records: %d matches, want 2", len(res.Matches))
	}
	if len(res.Candidates) != 0 {
		t.Fatalf("exact match must skip the candidate scan")
	}

	res = snap.Lookup([]string{"dvorzak"}, 0)
	if len(res.Matches) != 0 || len(res.Candidates) != 0 {
		t.Fatalf("k=0 miss must return nothing, got %+v", res)
	}
	res = snap.Lookup([]string{"dvorzak", "symphony"}, 100)
	if len(res.Candidates) != 3 {
		t.Fatalf("k beyond corpus: %d candidates, want 3", len(res.Candidates))
	}
	for i := 1; i < len(res.Candidates); i++ {
		a, b := res.Candidates[i-1], res.Candidates[i]
		if a.Distance > b.Distance || (a.Distance == b.Distance && a.Index >= b.Index) {
			t.Fatalf("candidates out of order at %d: %+v", i, res.Candidates)
		}
	}

	single := buildFromSolve(t, [][]string{{"only one"}}, "size", "ed", 2, 0)
	res = single.Lookup([]string{"only won"}, 3)
	if len(res.Candidates) != 1 || res.Candidates[0].Index != 0 {
		t.Fatalf("single-record corpus: %+v", res)
	}
}

// TestBuildMetadata: accessors reflect the config, and Prefiltered is set
// only for the certified metrics.
func TestBuildMetadata(t *testing.T) {
	recs := [][]string{{"a"}, {"b"}}
	for metricName, want := range map[string]bool{"ed": true, "damerau": true, "jaro": false, "jaccard": false} {
		snap := buildFromSolve(t, recs, "size", metricName, 2, 0)
		if snap.Prefiltered() != want {
			t.Errorf("%s: Prefiltered = %v, want %v", metricName, snap.Prefiltered(), want)
		}
	}
	snap := buildFromSolve(t, recs, "size", "ed", 2, 0)
	if snap.Dataset() != "ds_test" || snap.Seq() != 1 || snap.JobID() != "job_test" || snap.Len() != 2 {
		t.Errorf("metadata mismatch: %q %d %q %d", snap.Dataset(), snap.Seq(), snap.JobID(), snap.Len())
	}
	if snap.Params().Metric != "ed" || snap.Params().Mode != "size" {
		t.Errorf("params mismatch: %+v", snap.Params())
	}
	if _, err := Build(Config{Params: Params{Metric: "nope"}}); err == nil {
		t.Error("Build with unknown metric must fail")
	}
}

// TestBuildCopiesInputs: mutating the config's slices after Build must
// not affect the snapshot (immutability is the whole point).
func TestBuildCopiesInputs(t *testing.T) {
	recs := [][]string{{"alpha"}, {"beta"}}
	rids := []int64{1, 2}
	groups := [][]int{{0}, {1}}
	reps := []int{0, 1}
	snap, err := Build(Config{
		Records: recs, RIDs: rids, Groups: groups, Reps: reps,
		Params: Params{Metric: "ed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rids[0] = 99
	groups[0][0] = 1
	reps[0] = 1
	res := snap.Lookup([]string{"alpha"}, 0)
	if len(res.Matches) != 1 || res.Matches[0].RID != 1 {
		t.Fatalf("snapshot saw caller mutation: %+v", res.Matches)
	}
	if res.Matches[0].Group.Indexes[0] != 0 || res.Matches[0].Group.Representative != 1 {
		t.Fatalf("group state saw caller mutation: %+v", res.Matches[0].Group)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsInt64(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
