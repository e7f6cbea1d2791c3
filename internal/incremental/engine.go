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
//     (that scan is the new tuple's own lookup, so it is not extra work)
//     and those exact distances decide membership in the dirty set.
//   - Phase 2 (stitched partition): re-run the greedy CS/SN partition,
//     but re-evaluate only anchors whose inputs (their own row, a listed
//     neighbor's row, or the assignment state of a listed neighbor at
//     their turn) changed; every other group is adopted from the previous
//     partition unexamined. The adoption check is exact, so the result is
//     identical to a from-scratch solve of the mutated relation.
//
// Blocking candidate keys (internal/blocking) are maintained alongside as
// a diagnostic layer: the paper's own argument (Section 6) is that
// blocking cannot soundly bound nearest neighbors, so keys are never used
// to prune the dirty set — but each repair reports how much of the dirty
// set a blocking pass *would* have found, quantifying that argument live.
//
// The engine identifies records by stable integer IDs (slots). Deleted
// slots are reused by later inserts. It is not safe for concurrent use.
package incremental

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"fuzzydup/internal/blocking"
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
	// BlockKeys derives the diagnostic blocking keys (default
	// blocking.TokenKeys(3)).
	BlockKeys blocking.KeyFunc
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
	// BlockCandidates is the number of live records sharing at least one
	// blocking key with the mutated record; DirtyBlocked how many dirty
	// tuples were among them. DirtyBlocked < DirtyLookups-1 exhibits the
	// paper's Section 6 argument that blocking under-covers the
	// neighborhood structure.
	BlockCandidates int `json:"block_candidates"`
	DirtyBlocked    int `json:"dirty_blocked"`
	// Phase1 and Phase2 are the wall-clock durations of the dirty-row
	// relookup and the stitched partition.
	Phase1 time.Duration `json:"phase1_ns"`
	Phase2 time.Duration `json:"phase2_ns"`
}

// Engine is the incremental dedup state. Create with New, mutate with
// Insert/Delete/Update, read with Groups. Not safe for concurrent use.
type Engine struct {
	cfg    Config
	p      float64
	metric *distance.Counting

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

	blocks map[string]map[int]struct{} // blocking key -> slots (diagnostic)

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
	prob := core.Problem{Cut: cfg.Cut, Agg: cfg.Agg, C: cfg.C, P: cfg.P}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	p := cfg.P
	if p == 0 {
		p = core.DefaultP
	}
	if cfg.BlockKeys == nil {
		cfg.BlockKeys = blocking.TokenKeys(3)
	}
	e := &Engine{
		cfg:    cfg,
		p:      p,
		metric: distance.NewCounting(cfg.Metric),
		blocks: make(map[string]map[int]struct{}),
	}
	t0 := time.Now()
	for _, k := range keys {
		e.addSlot(k)
	}
	dirty := make(map[int]struct{}, len(keys))
	for id := range keys {
		e.relookup(id)
		dirty[id] = struct{}{}
	}
	phase1 := time.Since(t0)
	t1 := time.Now()
	adopted, reeval := e.repartition(dirty)
	e.last = RepairStats{
		Op:            "build",
		ID:            -1,
		Live:          e.nLiv,
		DirtyLookups:  len(keys),
		Adopted:       adopted,
		Reevaluated:   reeval,
		DistanceCalls: e.metric.Calls(),
		Phase1:        phase1,
		Phase2:        time.Since(t1),
	}
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
		if e.cfg.MinimalCompact {
			for _, piece := range core.SplitMinimal(e.rows, g) {
				out = append(out, append([]int(nil), piece...))
			}
		} else {
			out = append(out, append([]int(nil), g...))
		}
	}
	return canonicalize(out)
}

// Insert adds a record and repairs the state, returning its stable ID.
// Deleted IDs are reused (smallest first).
func (e *Engine) Insert(key string) int {
	span := e.cfg.Tracer.Start("incremental.repair")
	defer span.End()
	calls0 := e.metric.Calls()
	t0 := time.Now()
	s := e.allocSlot(key)
	dirty := e.insertDirty(s)
	sorted := sortedSet(dirty)
	for _, d := range sorted {
		e.relookup(d)
	}
	phase1 := time.Since(t0)
	t1 := time.Now()
	adopted, reeval := e.repartition(dirty)
	e.finishRepair(span, RepairStats{
		Op:           "insert",
		ID:           s,
		DirtyLookups: len(sorted),
		Adopted:      adopted,
		Reevaluated:  reeval,
		Phase1:       phase1,
		Phase2:       time.Since(t1),
	}, calls0, key, dirty)
	return s
}

// Delete removes a record by stable ID and repairs the state.
func (e *Engine) Delete(id int) error {
	if id < 0 || id >= len(e.keys) || !e.live[id] {
		return fmt.Errorf("incremental: no live record %d", id)
	}
	span := e.cfg.Tracer.Start("incremental.repair")
	defer span.End()
	calls0 := e.metric.Calls()
	key := e.keys[id]
	t0 := time.Now()
	dirty := make(map[int]struct{}, len(e.rev[id])+1)
	for w := range e.rev[id] {
		dirty[w] = struct{}{}
	}
	e.freeSlot(id)
	sorted := sortedSet(dirty)
	for _, d := range sorted {
		e.relookup(d)
	}
	phase1 := time.Since(t0)
	// The dead slot joins the dirty set for partitioning: its old group
	// must dissolve even when no live row changed (a pure singleton).
	dirty[id] = struct{}{}
	t1 := time.Now()
	adopted, reeval := e.repartition(dirty)
	e.finishRepair(span, RepairStats{
		Op:           "delete",
		ID:           id,
		DirtyLookups: len(sorted),
		Adopted:      adopted,
		Reevaluated:  reeval,
		Phase1:       phase1,
		Phase2:       time.Since(t1),
	}, calls0, key, dirty)
	return nil
}

// Update replaces a record's content in place (the stable ID is kept) and
// repairs the state.
func (e *Engine) Update(id int, key string) error {
	if id < 0 || id >= len(e.keys) || !e.live[id] {
		return fmt.Errorf("incremental: no live record %d", id)
	}
	span := e.cfg.Tracer.Start("incremental.repair")
	defer span.End()
	calls0 := e.metric.Calls()
	t0 := time.Now()
	// Old-side dirtiness: everyone who watched the old content.
	dirty := map[int]struct{}{id: {}}
	for w := range e.rev[id] {
		dirty[w] = struct{}{}
	}
	e.unblockKey(id, e.keys[id])
	e.keys[id] = key
	e.blockKey(id, key)
	// New-side dirtiness: everyone the new content newly reaches.
	e.insertDirtyInto(id, dirty)
	sorted := sortedSet(dirty)
	for _, d := range sorted {
		e.relookup(d)
	}
	phase1 := time.Since(t0)
	t1 := time.Now()
	adopted, reeval := e.repartition(dirty)
	e.finishRepair(span, RepairStats{
		Op:           "update",
		ID:           id,
		DirtyLookups: len(sorted),
		Adopted:      adopted,
		Reevaluated:  reeval,
		Phase1:       phase1,
		Phase2:       time.Since(t1),
	}, calls0, key, dirty)
	return nil
}

// finishRepair fills the shared stat fields and emits the span counters.
func (e *Engine) finishRepair(span *obs.Span, st RepairStats, calls0 int64, key string, dirty map[int]struct{}) {
	st.Live = e.nLiv
	st.DistanceCalls = e.metric.Calls() - calls0
	st.BlockCandidates, st.DirtyBlocked = e.blockCoverage(key, dirty, st.ID)
	e.last = st
	p1 := span.Child("phase1")
	p1.Add("dirty_lookups", int64(st.DirtyLookups))
	p1.Add("distance_calls", st.DistanceCalls)
	p1.End()
	p2 := span.Child("phase2")
	p2.Add("adopted", int64(st.Adopted))
	p2.Add("reevaluated", int64(st.Reevaluated))
	p2.End()
	span.Add("live", int64(st.Live))
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
	e.blockKey(s, key)
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
	e.blockKey(s, key)
	return s
}

// freeSlot kills a slot: drops its watch edges, its blocking keys, and its
// row, and returns it to the free list. rev[id] is cleared lazily — every
// watcher is relooked up right after, which removes its stale edge.
func (e *Engine) freeSlot(id int) {
	for _, w := range e.watch[id] {
		delete(e.rev[w], id)
	}
	e.watch[id] = nil
	e.rev[id] = make(map[int]struct{})
	e.unblockKey(id, e.keys[id])
	e.keys[id] = ""
	e.live[id] = false
	e.rows[id] = core.NNRow{}
	e.nnDist[id] = math.Inf(1)
	e.nnID[id] = -1
	e.radius[id] = 0
	e.nLiv--
	e.free = append(e.free, id)
}

// --- blocking diagnostics ------------------------------------------------

func (e *Engine) blockKey(id int, key string) {
	for _, bk := range e.cfg.BlockKeys(key) {
		set := e.blocks[bk]
		if set == nil {
			set = make(map[int]struct{})
			e.blocks[bk] = set
		}
		set[id] = struct{}{}
	}
}

func (e *Engine) unblockKey(id int, key string) {
	for _, bk := range e.cfg.BlockKeys(key) {
		if set := e.blocks[bk]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(e.blocks, bk)
			}
		}
	}
}

// blockCoverage reports how many live records share a blocking key with
// the mutated record, and how many of the dirty tuples are among them.
func (e *Engine) blockCoverage(key string, dirty map[int]struct{}, self int) (candidates, dirtyHit int) {
	cand := make(map[int]struct{})
	for _, bk := range e.cfg.BlockKeys(key) {
		for id := range e.blocks[bk] {
			if id != self && e.live[id] {
				cand[id] = struct{}{}
			}
		}
	}
	for id := range dirty {
		if _, ok := cand[id]; ok {
			dirtyHit++
		}
	}
	return len(cand), dirtyHit
}

// --- phase 1: dirty detection and relookup -------------------------------

// insertDirty computes the dirty set for a fresh slot s: s itself plus
// every live tuple whose NN list, nearest neighbor, or growth sphere the
// new record enters, decided from exact distances.
func (e *Engine) insertDirty(s int) map[int]struct{} {
	dirty := map[int]struct{}{s: {}}
	e.insertDirtyInto(s, dirty)
	return dirty
}

func (e *Engine) insertDirtyInto(s int, dirty map[int]struct{}) {
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
	if e.cfg.Cut.IsSize() {
		list := e.rows[u].NNList
		k := e.cfg.Cut.MaxSize
		if len(list) < k {
			return true // the list has room: s joins it
		}
		last := list[k-1]
		if d < last.Dist || (d == last.Dist && s < last.ID) {
			return true // s displaces the current k-th neighbor
		}
	} else if d < e.cfg.Cut.Diameter {
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
	key := e.keys[v]
	// One pass computes all live distances into the scratch buffer.
	nnD, nnI := math.Inf(1), -1
	for u := range e.keys {
		if u == v || !e.live[u] {
			continue
		}
		d := e.metric.Distance(key, e.keys[u])
		e.dists[u] = d
		if d < nnD || (d == nnD && u < nnI) {
			nnD, nnI = d, u
		}
	}

	var list []nnindex.Neighbor
	if e.cfg.Cut.IsSize() {
		list = e.topK(v, e.cfg.Cut.MaxSize)
	} else {
		list = e.inRange(v, e.cfg.Cut.Diameter)
	}

	var r float64
	switch {
	case nnI == -1:
		r = 0
	case nnD == 0:
		r = core.ZeroDistanceRadius
	default:
		r = e.p * nnD
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
	watch = dedupSorted(watch)

	e.rows[v] = core.NNRow{NNList: list, NG: ng}
	e.nnDist[v] = nnD
	e.nnID[v] = nnI
	e.radius[v] = r
	e.watch[v] = watch
	for _, w := range watch {
		e.rev[w][v] = struct{}{}
	}
}

// neighborHeap is a max-heap under the (dist, ID) order, holding the best
// k candidates seen so far with the worst at the root.
type neighborHeap []nnindex.Neighbor

func (h neighborHeap) Len() int { return len(h) }
func (h neighborHeap) Less(i, j int) bool {
	if h[i].Dist != h[j].Dist {
		return h[i].Dist > h[j].Dist
	}
	return h[i].ID > h[j].ID
}
func (h neighborHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x any)   { *h = append(*h, x.(nnindex.Neighbor)) }
func (h *neighborHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// topK selects the k nearest live neighbors of v from the scratch
// distances, ordered by ascending (distance, ID) — identical to
// nnindex.Exact.TopK without sorting the whole relation.
func (e *Engine) topK(v, k int) []nnindex.Neighbor {
	if k <= 0 {
		return nil
	}
	if k > len(e.keys) {
		k = len(e.keys) // no list outgrows the corpus; a huge K must not size the heap
	}
	h := make(neighborHeap, 0, k+1)
	for u := range e.keys {
		if u == v || !e.live[u] {
			continue
		}
		nb := nnindex.Neighbor{ID: u, Dist: e.dists[u]}
		if len(h) < k {
			heap.Push(&h, nb)
			continue
		}
		worst := h[0]
		if nb.Dist < worst.Dist || (nb.Dist == worst.Dist && nb.ID < worst.ID) {
			h[0] = nb
			heap.Fix(&h, 0)
		}
	}
	out := []nnindex.Neighbor(h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// inRange collects all live neighbors of v with distance < theta, ordered
// by ascending (distance, ID) — identical to nnindex.Exact.Range.
func (e *Engine) inRange(v int, theta float64) []nnindex.Neighbor {
	var out []nnindex.Neighbor
	for u := range e.keys {
		if u == v || !e.live[u] {
			continue
		}
		if e.dists[u] < theta {
			out = append(out, nnindex.Neighbor{ID: u, Dist: e.dists[u]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// --- helpers -------------------------------------------------------------

func sortedSet(s map[int]struct{}) []int {
	out := make([]int, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func dedupSorted(s []int) []int {
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func canonicalize(groups [][]int) [][]int {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
