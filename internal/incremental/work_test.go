package incremental

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"fuzzydup/internal/core"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/repair_work.txt from the current engine")

// workGolden is the committed repair-work record TestRepairWork diffs.
const workGolden = "testdata/repair_work.txt"

// TestRepairWork pins the work of every repair on fixed seeded operation
// sequences: per operation, the dirty lookups, distance calls, and
// adopted and re-evaluated groups, diffed exactly against a committed
// file. Equivalence suites only see the partition; this catches a repair
// that stays correct but relooks up more rows, measures a distance twice,
// or re-evaluates groups it could have adopted. A change that alters
// repair work on purpose regenerates the file with -update and shows the
// diff.
func TestRepairWork(t *testing.T) {
	census := dataset.Census(dataset.Config{Size: 120, Seed: 7}).Keys()
	pool := census[60:]
	typo := func(r *rand.Rand, s string) string {
		b := []byte(s)
		b[r.Intn(len(b))] = byte('a' + r.Intn(26))
		return string(b)
	}
	seqs := []struct {
		name string
		cfg  Config
		seed int64
		keys func(r *rand.Rand) []string
		// next draws the key an insert or update writes.
		next func(r *rand.Rand, e *Engine) string
	}{
		{
			name: "de_s",
			cfg:  Config{Metric: numMetric, Cut: core.Cut{MaxSize: 4}, C: 4},
			seed: 1,
			keys: func(r *rand.Rand) []string { return clusteredKeys(r, 40) },
		},
		{
			name: "de_d_minimal",
			cfg:  Config{Metric: numMetric, Cut: core.Cut{Diameter: 40.0 / numScale}, C: 3, MinimalCompact: true},
			seed: 2,
			keys: func(r *rand.Rand) []string { return clusteredKeys(r, 40) },
		},
		{
			name: "combined",
			cfg:  Config{Metric: numMetric, Cut: core.Cut{MaxSize: 3, Diameter: 30.0 / numScale}, C: 3},
			seed: 3,
			keys: func(r *rand.Rand) []string { return clusteredKeys(r, 40) },
		},
		{
			name: "ed",
			cfg:  Config{Metric: distance.Edit{}, Cut: core.Cut{MaxSize: 3}, C: 4},
			seed: 4,
			keys: func(*rand.Rand) []string { return census[:60] },
			next: func(r *rand.Rand, e *Engine) string {
				if r.Intn(2) == 0 {
					return pool[r.Intn(len(pool))]
				}
				ids := e.IDs()
				k, _ := e.Key(ids[r.Intn(len(ids))])
				return typo(r, k)
			},
		},
	}

	var out bytes.Buffer
	fmt.Fprintln(&out, "# seq\top\tid\tlive\tdirty_lookups\tdistance_calls\tadopted\treevaluated")
	for _, sq := range seqs {
		next := sq.next
		if next == nil {
			next = func(r *rand.Rand, _ *Engine) string { return strconv.Itoa(r.Intn(numScale)) }
		}
		r := rand.New(rand.NewSource(sq.seed))
		e, err := New(sq.keys(r), sq.cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", sq.name, err)
		}
		record := func() {
			st := e.LastRepair()
			fmt.Fprintf(&out, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", sq.name, st.Op, st.ID, st.Live,
				st.DirtyLookups, st.DistanceCalls, st.Adopted, st.Reevaluated)
		}
		record()
		for o := 0; o < 60; o++ {
			ids := e.IDs()
			switch op := r.Intn(3); {
			case op == 0 || len(ids) == 0:
				e.Insert(next(r, e))
			case op == 1:
				if err := e.Delete(ids[r.Intn(len(ids))]); err != nil {
					t.Fatalf("%s op %d: %v", sq.name, o, err)
				}
			default:
				id := ids[r.Intn(len(ids))]
				if err := e.Update(id, next(r, e)); err != nil {
					t.Fatalf("%s op %d: %v", sq.name, o, err)
				}
			}
			record()
		}
	}

	if *updateWork {
		if err := os.WriteFile(workGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workGolden)
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
				t.Fatalf("repair work differs from %s at line %d:\ngot:  %s\nwant: %s\n(run with -update if the change is intended)",
					workGolden, i+1, g, w)
			}
		}
	}
}
