package fuzzydup

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fuzzydup/internal/core"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned_answers.txt from the exact-index oracle")

// pinnedGolden is the committed partition-digest record TestPinnedAnswers
// diffs.
const pinnedGolden = "testdata/pinned_answers.txt"

// TestPinnedAnswers pins the batch partition of every (generator, cut,
// agg, c, minimal_compact) point of a fixed sweep: the six dataset
// generators at ~400 records (seed 1) and the paper's Table 1, under
// DE_S(K) for K in {2,3,4,6} and DE_D(θ) for θ in {0.1,0.2,0.3}. Each
// line holds the group count, the duplicate-group count and a SHA-256 of
// the canonical partition, diffed exactly against a committed file.
//
// The per-path equivalence suites compare against core.Solve, so a change
// inside core moves every path at once and none of them can see it. This
// golden can. The lines are computed with core.ComputeNN over the exact
// index (the oracle) and core.Partition; the agg=max, minimal_compact=off
// lines are also solved through the default facade, which must produce
// the same digests.
func TestPinnedAnswers(t *testing.T) {
	var corpora []*dataset.Dataset
	for _, name := range dataset.Names() {
		ds, err := dataset.ByName(name, dataset.Config{Size: 400, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		corpora = append(corpora, ds)
	}
	corpora = append(corpora, dataset.Table1())

	sizes := []int{2, 3, 4, 6}
	thetas := []float64{0.1, 0.2, 0.3}
	cs := []float64{2.5, 4, 6}
	aggs := []core.Agg{core.AggMax, core.AggAvg, core.AggMax2}

	var out bytes.Buffer
	fmt.Fprintln(&out, "# generator\tcut\tagg\tc\tminimal_compact\tgroups\tduplicate_groups\tsha256")
	for _, cp := range corpora {
		idx := nnindex.NewExact(cp.Keys(), distance.Edit{})
		p1 := core.Phase1Options{Parallel: 2}
		relS, err := core.ComputeNN(idx, core.Cut{MaxSize: sizes[len(sizes)-1]}, core.DefaultP, p1)
		if err != nil {
			t.Fatal(err)
		}
		relD, err := core.ComputeNN(idx, core.Cut{Diameter: thetas[len(thetas)-1]}, core.DefaultP, p1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(recordsOf(cp), Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}

		type facadePoint struct {
			cut  core.Cut
			c    float64
			name string
			line string
		}
		var facade []facadePoint
		var cuts []core.Cut
		for _, k := range sizes {
			cuts = append(cuts, core.Cut{MaxSize: k})
		}
		for _, th := range thetas {
			cuts = append(cuts, core.Cut{Diameter: th})
		}
		for _, cut := range cuts {
			var rel *core.NNRelation
			cutName := "K=" + strconv.Itoa(cut.MaxSize)
			if cut.IsSize() {
				rel = relS.TruncateSize(cut.MaxSize)
			} else {
				rel = relD.TruncateDiameter(cut.Diameter)
				cutName = "theta=" + strconv.FormatFloat(cut.Diameter, 'g', -1, 64)
			}
			for _, agg := range aggs {
				for _, c := range cs {
					for _, mc := range []bool{false, true} {
						groups, err := core.Partition(rel, core.Problem{Cut: cut, Agg: agg, C: c, MinimalCompact: mc})
						if err != nil {
							t.Fatalf("%s %s %v c=%g mc=%v: %v", cp.Name, cutName, agg, c, mc, err)
						}
						line := pinnedLine(groups)
						if agg == core.AggMax && !mc {
							facade = append(facade, facadePoint{cut, c, cutName, line})
						}
						fmt.Fprintf(&out, "%s\t%s\t%v\t%g\t%v\t%s\n", cp.Name, cutName, agg, c, mc, line)
					}
				}
			}
		}
		// Widest cut first, as dedupd sweeps, so each cut family costs the
		// facade one phase 1.
		for i := len(facade) - 1; i >= 0; i-- {
			fp := facade[i]
			fg, err := d.GroupsBySizeAndDiameter(fp.cut.MaxSize, fp.cut.Diameter, fp.c)
			if err != nil {
				t.Fatalf("%s %s c=%g: facade: %v", cp.Name, fp.name, fp.c, err)
			}
			if got := pinnedLine(fg); got != fp.line {
				t.Errorf("%s %s c=%g: facade answer %s, oracle %s", cp.Name, fp.name, fp.c, got, fp.line)
			}
		}
	}

	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("pinned answers differ from %s at line %d:\ngot:  %s\nwant: %s", pinnedGolden, i+1, g, w)
		}
	}
}

// recordsOf converts a generated dataset's records to facade records.
func recordsOf(ds *dataset.Dataset) []Record {
	records := make([]Record, ds.Len())
	for i, r := range ds.Records {
		records[i] = Record(r)
	}
	return records
}

// pinnedLine renders a partition as "groups\tduplicate_groups\tsha256",
// the digest taken over the canonical form: members ascending within a
// group, groups ordered by their least member, one group per line.
func pinnedLine(groups [][]int) string {
	canon := make([][]int, len(groups))
	dups := 0
	for i, g := range groups {
		canon[i] = append([]int(nil), g...)
		sort.Ints(canon[i])
		if len(g) >= 2 {
			dups++
		}
	}
	sort.Slice(canon, func(i, j int) bool { return canon[i][0] < canon[j][0] })
	h := sha256.New()
	for _, g := range canon {
		for j, v := range g {
			if j > 0 {
				h.Write([]byte{','})
			}
			h.Write([]byte(strconv.Itoa(v)))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d\t%d\t%x", len(groups), dups, h.Sum(nil))
}
