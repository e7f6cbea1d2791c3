package nnindex_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"fuzzydup/internal/core"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/phase1_work.txt from the current index")

// phase1Golden is the committed phase-1 work record TestPhase1Work diffs.
const phase1Golden = "testdata/phase1_work.txt"

// TestPhase1Work pins the work of a serial phase 1 over the exact index
// (Pruned) on four of the six dataset generators at 400 records, seed 1
// (the corpora of TestPinnedAnswers), under both certified metrics and
// the cuts DE_S(4) and DE_D(0.1). Each line holds the lookups and index
// probes core counts and the index's pruned, candidate (verified) and
// fallback counters, diffed exactly against a committed file. The
// equivalence suites only see answers; this catches a change that stays
// exact but verifies more records. A change that alters phase-1 work on
// purpose regenerates the file with -update and shows the diff.
//
// The grid is trimmed to stay near 10 s on a 2-vCPU Xeon. media and org
// are left out: their long keys took about 20 of the full grid's 28 s
// there. A combined size-and-diameter cut is left out too: phase 1 runs
// the range leg whenever a diameter is set, so its lines repeat the
// DE_D lines.
func TestPhase1Work(t *testing.T) {
	cuts := []struct {
		name string
		cut  core.Cut
	}{
		{"K=4", core.Cut{MaxSize: 4}},
		{"theta=0.1", core.Cut{Diameter: 0.1}},
	}
	var out bytes.Buffer
	fmt.Fprintln(&out, "# generator\tmetric\tcut\tlookups\tprobes\tpruned\tcandidates\tfallbacks")
	for _, name := range []string{"restaurants", "birdscott", "parks", "census"} {
		ds, err := dataset.ByName(name, dataset.Config{Size: 400, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		keys := ds.Keys()
		for _, metric := range []distance.Metric{distance.Edit{}, distance.Damerau{}} {
			for _, c := range cuts {
				idx, err := nnindex.NewPruned(keys, metric, nnindex.PrunedConfig{})
				if err != nil {
					t.Fatal(err)
				}
				var st core.Phase1Stats
				opts := core.Phase1Options{Order: core.OrderSequential, Stats: &st}
				if _, err := core.ComputeNN(idx, c.cut, 0, opts); err != nil {
					t.Fatalf("%s %s %s: %v", name, metric.Name(), c.name, err)
				}
				fmt.Fprintf(&out, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n", name, metric.Name(), c.name,
					st.Lookups.Load(), st.Probes.Load(), st.Pruned.Load(), st.Candidates.Load(), st.Fallbacks.Load())
			}
		}
	}

	if *updateWork {
		if err := os.WriteFile(phase1Golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(phase1Golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("phase-1 work differs from %s at line %d:\ngot:  %s\nwant: %s\n(run with -update if the change is intended)",
					phase1Golden, i+1, g, w)
			}
		}
	}
}
