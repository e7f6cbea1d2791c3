// Package incremental maintains a solved duplicate-elimination state —
// records, phase-1 NN rows, neighborhood growths, and the CS/SN partition
// — under record inserts, deletes, and updates without recomputing the
// whole relation.
//
// The paper's DE formulation makes this principled: the partition is
// unique and split/merge consistent (Lemmas 1 and 3), so a data change
// can only move tuples whose *local* structure it touches. A repair runs
// in two phases mirroring the batch algorithm:
//
//   - Phase 1 (dirty rows): find every tuple whose NN-List, nn(v), or
//     ng(v) the change can affect and re-run the phase-1 lookup for
//     exactly those. For a delete this is the reverse-watch set of the
//     removed tuple (who lists it, who counts it in a growth sphere,
//     whose nearest neighbor it is) — no distance computations at all.
//     For an insert, one linear scan computes the new tuple's distances
//     and those exact distances decide membership in the dirty set (the
//     new tuple's own relookup then measures them a second time).
//   - Phase 2 (stitched partition): re-run the greedy CS/SN partition,
//     but re-evaluate only anchors whose inputs (their own row, a listed
//     neighbor's row, or the assignment state of a listed neighbor at
//     their turn) changed; every other group is adopted from the previous
//     partition unexamined. The adoption check is exact, so the result is
//     identical to a from-scratch solve of the mutated relation.
//
// The engine keeps only what is incremental: the dirty sets, the watch
// and reverse-watch edges, the slot bookkeeping, and group adoption. The
// solver itself is shared with the batch path: a relookup selects its
// list with nnindex.Selection and sizes its sphere with
// core.GrowthRadius, a re-evaluated anchor runs core.LargestGroup, and
// Groups orders with core.SortGroups.
//
// Blocking never bounds the dirty set: the paper's Section 6 argues it
// cannot soundly bound nearest neighbors, and the abl-blocking
// experiment (experiments.BlockingAblation) measures how much of the
// neighborhood structure it misses.
//
// The engine identifies records by stable integer IDs (slots). Deleted
// slots are reused by later inserts. It is not safe for concurrent use.
package incremental

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/obs"
)

// Config parameterizes an Engine. Metric, C, and Cut are required; the
// rest default like core.Problem.
type Config struct {
	// Metric is the distance function. It must be corpus-independent:
	// IDF-weighted metrics change every pairwise distance on any insert,
	// which makes local repair meaningless.
	Metric distance.Metric
	// Cut selects DE_S(K), DE_D(θ), or the combined form.
	Cut core.Cut
	// Agg is the SN aggregation (default core.AggMax).
	Agg core.Agg
	// C is the sparse-neighborhood threshold (> 1).
	C float64
	// P is the growth-sphere factor (0 selects core.DefaultP).
	P float64
	// MinimalCompact applies the Section 4.4.2 split to reported groups.
	MinimalCompact bool
	// Exclude is the constraining predicate over stable record IDs.
	Exclude func(a, b int) bool
	// Tracer, when non-nil, receives an "incremental.repair" span per
	// mutation with "phase1"/"phase2" children.
	Tracer *obs.Tracer
}

// RepairStats describes the work of one repair (or of the initial build,
// Op "build").
type RepairStats struct {
	// Op is "build", "insert", "delete", or "update"; ID the stable
	// record ID the operation targeted.
	Op string `json:"op"`
	ID int    `json:"id"`
	// Live is the number of live records after the operation.
	Live int `json:"live"`
	// DirtyLookups is the number of phase-1 lookups re-run — the tuples
	// the repair "touched". Full recompute would be Live lookups.
	DirtyLookups int `json:"dirty_lookups"`
	// Adopted counts groups stitched through from the previous partition
	// without re-evaluation; Reevaluated counts anchors that re-ran the
	// candidate search.
	Adopted     int `json:"adopted"`
	Reevaluated int `json:"reevaluated"`
	// DistanceCalls is the number of metric invocations the repair cost.
	DistanceCalls int64 `json:"distance_calls"`
	// Phase1 and Phase2 are the wall-clock durations of the dirty-row
	// relookup and the stitched partition.
	Phase1 time.Duration `json:"phase1_ns"`
	Phase2 time.Duration `json:"phase2_ns"`
}

// Engine is the incremental dedup state. Create with New, mutate with
// Insert/Delete/Update, read with Groups. Not safe for concurrent use.
type Engine struct {
	prob   core.Problem // the Config's problem, P resolved
	metric *distance.Counting
	tracer *obs.Tracer

	keys []string
	live []bool
	free []int // dead slots available for reuse
	nLiv int

	rows   []core.NNRow       // dense by slot; dead slots hold zero rows
	nnDist []float64          // true nearest-neighbor distance (+Inf when alone)
	nnID   []int              // nearest neighbor slot (-1 when alone)
	radius []float64          // growth-sphere radius (0 when alone)
	watch  [][]int            // sorted watch set: NN-list ∪ growth sphere ∪ {nn}
	rev    []map[int]struct{} // rev[u] = slots whose watch set contains u

	groups  [][]int // canonical pre-split partition of live slots
	groupOf []int   // slot -> index into groups (-1 for dead slots)

	dists []float64 // scratch: distances by slot for the current scan

	last RepairStats
}

// New builds an Engine over the initial records (which may be empty) and
// solves them from scratch. Stable IDs 0..len(keys)-1 are assigned in
// order.
func New(keys []string, cfg Config) (*Engine, error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("incremental: nil metric")
	}
	prob := core.Problem{
		Cut:            cfg.Cut,
		Agg:            cfg.Agg,
		C:              cfg.C,
		P:              cfg.P,
		MinimalCompact: cfg.MinimalCompact,
		Exclude:        cfg.Exclude,
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if prob.P == 0 {
		prob.P = core.DefaultP
	}
	e := &Engine{prob: prob, metric: distance.NewCounting(cfg.Metric), tracer: cfg.Tracer}
	// The build is one repair with every slot dirty; it emits no span.
	e.repair(nil, "build", func() (int, map[int]struct{}) {
		dirty := make(map[int]struct{}, len(keys))
		for _, k := range keys {
			dirty[e.addSlot(k)] = struct{}{}
		}
		return -1, dirty
	})
	return e, nil
}

// Len returns the number of live records.
func (e *Engine) Len() int { return e.nLiv }

// IDs returns the live stable IDs in ascending order.
func (e *Engine) IDs() []int {
	out := make([]int, 0, e.nLiv)
	for id, ok := range e.live {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Key returns the record string for a stable ID.
func (e *Engine) Key(id int) (string, bool) {
	if id < 0 || id >= len(e.keys) || !e.live[id] {
		return "", false
	}
	return e.keys[id], true
}

// LastRepair returns the statistics of the most recent mutation (or of
// the initial build).
func (e *Engine) LastRepair() RepairStats { return e.last }

// DistanceCalls returns the cumulative metric invocations across the
// engine's lifetime.
func (e *Engine) DistanceCalls() int64 { return e.metric.Calls() }

// Groups returns the current partition over stable IDs, canonically
// ordered (members ascending, groups by smallest member), with the
// minimal-compact split applied when configured. The result is a copy.
func (e *Engine) Groups() [][]int {
	var out [][]int
	for _, g := range e.groups {
		if e.prob.MinimalCompact {
			for _, piece := range core.SplitMinimal(e.rows, g) {
				out = append(out, append([]int(nil), piece...))
			}
		} else {
			out = append(out, append([]int(nil), g...))
		}
	}
	return core.SortGroups(out)
}

// Insert adds a record and repairs the state, returning its stable ID.
// Deleted IDs are reused (smallest first).
func (e *Engine) Insert(key string) int {
	return e.repair(e.tracer.Start("incremental.repair"), "insert", func() (int, map[int]struct{}) {
		s := e.allocSlot(key)
		dirty := map[int]struct{}{s: {}}
		e.insertDirty(s, dirty)
		return s, dirty
	})
}

// Delete removes a record by stable ID and repairs the state.
func (e *Engine) Delete(id int) error {
	if id < 0 || id >= len(e.keys) || !e.live[id] {
		return fmt.Errorf("incremental: no live record %d", id)
	}
	e.repair(e.tracer.Start("incremental.repair"), "delete", func() (int, map[int]struct{}) {
		// Everyone who watched the record is dirty. The dead slot joins
		// the dirty set for partitioning only: its old group must
		// dissolve even when no live row changed (a pure singleton).
		dirty := map[int]struct{}{id: {}}
		for w := range e.rev[id] {
			dirty[w] = struct{}{}
		}
		e.freeSlot(id)
		return id, dirty
	})
	return nil
}

// Update replaces a record's content in place (the stable ID is kept) and
// repairs the state.
func (e *Engine) Update(id int, key string) error {
	if id < 0 || id >= len(e.keys) || !e.live[id] {
		return fmt.Errorf("incremental: no live record %d", id)
	}
	e.repair(e.tracer.Start("incremental.repair"), "update", func() (int, map[int]struct{}) {
		// Old-side dirtiness: everyone who watched the old content.
		dirty := map[int]struct{}{id: {}}
		for w := range e.rev[id] {
			dirty[w] = struct{}{}
		}
		// New-side dirtiness: everyone the new content newly reaches.
		e.keys[id] = key
		e.insertDirty(id, dirty)
		return id, dirty
	})
	return nil
}

// repair is the tail every mutation shares. change applies the mutation
// and returns its target ID and dirty set; repair then relooks up every
// live dirty slot in ascending order, re-runs the stitched partition, and
// records the stats, with change's own work counted toward phase 1. span
// (nil for the build) receives the repair's counters and is ended.
func (e *Engine) repair(span *obs.Span, op string, change func() (int, map[int]struct{})) int {
	defer span.End()
	calls0 := e.metric.Calls()
	t0 := time.Now()
	id, dirty := change()
	lookups := 0
	for _, d := range slices.Sorted(maps.Keys(dirty)) {
		if e.live[d] {
			e.relookup(d)
			lookups++
		}
	}
	phase1 := time.Since(t0)
	t1 := time.Now()
	adopted, reeval := e.repartition(dirty)
	e.last = RepairStats{
		Op:            op,
		ID:            id,
		Live:          e.nLiv,
		DirtyLookups:  lookups,
		Adopted:       adopted,
		Reevaluated:   reeval,
		DistanceCalls: e.metric.Calls() - calls0,
		Phase1:        phase1,
		Phase2:        time.Since(t1),
	}
	p1 := span.Child("phase1")
	p1.Add("dirty_lookups", int64(lookups))
	p1.Add("distance_calls", e.last.DistanceCalls)
	p1.End()
	p2 := span.Child("phase2")
	p2.Add("adopted", int64(adopted))
	p2.Add("reevaluated", int64(reeval))
	p2.End()
	span.Add("live", int64(e.nLiv))
	return id
}

// --- slot bookkeeping ---------------------------------------------------

func (e *Engine) addSlot(key string) int {
	s := len(e.keys)
	e.keys = append(e.keys, key)
	e.live = append(e.live, true)
	e.rows = append(e.rows, core.NNRow{})
	e.nnDist = append(e.nnDist, math.Inf(1))
	e.nnID = append(e.nnID, -1)
	e.radius = append(e.radius, 0)
	e.watch = append(e.watch, nil)
	e.rev = append(e.rev, make(map[int]struct{}))
	e.groupOf = append(e.groupOf, -1)
	e.dists = append(e.dists, 0)
	e.nLiv++
	return s
}

// allocSlot reuses the smallest free slot, or appends a new one.
func (e *Engine) allocSlot(key string) int {
	if len(e.free) == 0 {
		return e.addSlot(key)
	}
	min := 0
	for i := range e.free {
		if e.free[i] < e.free[min] {
			min = i
		}
	}
	s := e.free[min]
	e.free = append(e.free[:min], e.free[min+1:]...)
	e.keys[s] = key
	e.live[s] = true
	e.nLiv++
	return s
}

// freeSlot kills a slot: drops its watch edges and its row, and returns
// it to the free list. rev[id] is cleared lazily — every watcher is
// relooked up right after, which removes its stale edge.
func (e *Engine) freeSlot(id int) {
	for _, w := range e.watch[id] {
		delete(e.rev[w], id)
	}
	e.watch[id] = nil
	e.rev[id] = make(map[int]struct{})
	e.keys[id] = ""
	e.live[id] = false
	e.rows[id] = core.NNRow{}
	e.nnDist[id] = math.Inf(1)
	e.nnID[id] = -1
	e.radius[id] = 0
	e.nLiv--
	e.free = append(e.free, id)
}

// --- phase 1: dirty detection and relookup -------------------------------

// insertDirty adds to dirty every live tuple whose NN list, nearest
// neighbor, or growth sphere the (new or re-keyed) record in slot s
// enters, decided from exact distances.
func (e *Engine) insertDirty(s int, dirty map[int]struct{}) {
	key := e.keys[s]
	for u := range e.keys {
		if u == s || !e.live[u] {
			continue
		}
		d := e.metric.Distance(key, e.keys[u])
		if e.insertAffects(u, d, s) {
			dirty[u] = struct{}{}
		}
	}
}

// insertAffects reports whether a new (or re-keyed) record s at distance d
// can change live tuple u's phase-1 row. The checks mirror exactly what
// the row stores: the cut-bounded NN list, nn(u), and the growth sphere.
func (e *Engine) insertAffects(u int, d float64, s int) bool {
	if e.prob.Cut.IsSize() {
		list := e.rows[u].NNList
		k := e.prob.Cut.MaxSize
		if len(list) < k {
			return true // the list has room: s joins it
		}
		last := list[k-1]
		if d < last.Dist || (d == last.Dist && s < last.ID) {
			return true // s displaces the current k-th neighbor
		}
	} else if d < e.prob.Cut.Diameter {
		return true // s enters u's θ-neighborhood
	}
	if e.nnID[u] == -1 {
		return true // u was alone; everything about its row changes
	}
	if d < e.nnDist[u] {
		return true // new nearest neighbor: the growth radius moves
	}
	if e.radius[u] > 0 && d < e.radius[u] {
		return true // s lands inside the growth sphere: ng(u) changes
	}
	return false
}

// relookup re-runs the phase-1 lookup for slot v against the live
// relation: the cut-bounded neighbor list, nn(v), the growth radius, the
// self-inclusive neighborhood growth, and the reverse-watch edges.
func (e *Engine) relookup(v int) {
	for _, w := range e.watch[v] {
		delete(e.rev[w], v)
	}
	// The list is the K nearest (size cut) or every neighbor closer than
	// θ (diameter and combined cuts), as nnindex.Exact answers them.
	size := e.prob.Cut.IsSize()
	k := e.prob.Cut.MaxSize
	if !size {
		k = len(e.keys)
	}
	sel := nnindex.NewSelection(k)
	// One pass measures every live distance once, into the scratch buffer
	// the growth sphere is counted from.
	key := e.keys[v]
	nnD, nnI := math.Inf(1), -1
	for u := range e.keys {
		if u == v || !e.live[u] {
			continue
		}
		d := e.metric.Distance(key, e.keys[u])
		e.dists[u] = d
		if d < nnD {
			nnD, nnI = d, u
		}
		if size || d < e.prob.Cut.Diameter {
			sel.Offer(nnindex.Neighbor{ID: u, Dist: d})
		}
	}
	list := sel.Sorted()

	var r float64 // a tuple alone has no growth sphere
	if nnI >= 0 {
		r = core.GrowthRadius(nnD, e.prob.P)
	}
	ng := 1 // the tuple itself is inside its own growth sphere
	watch := make([]int, 0, len(list)+4)
	for _, nb := range list {
		watch = append(watch, nb.ID)
	}
	if r > 0 {
		for u := range e.keys {
			if u == v || !e.live[u] {
				continue
			}
			if e.dists[u] < r {
				ng++
				watch = append(watch, u)
			}
		}
	}
	if nnI >= 0 {
		watch = append(watch, nnI)
	}
	slices.Sort(watch)
	watch = slices.Compact(watch)

	e.rows[v] = core.NNRow{NNList: list, NG: ng}
	e.nnDist[v] = nnD
	e.nnID[v] = nnI
	e.radius[v] = r
	e.watch[v] = watch
	for _, w := range watch {
		e.rev[w][v] = struct{}{}
	}
}
