package incremental

import (
	"sort"

	"fuzzydup/internal/core"
)

// repartition re-runs phase 2 over the live relation, adopting unchanged
// groups from the previous partition and re-evaluating only anchors whose
// inputs could have moved. It returns the adopted and re-evaluated anchor
// counts.
//
// Soundness. The greedy walk of core.Partition decides anchor v's group
// from exactly three inputs: v's own NN row, the NN rows of v's listed
// neighbors (compactness compares closures, SN aggregates their growths,
// both confined to {v} ∪ list(v)), and the assigned-status of each listed
// neighbor at v's turn. The first two are covered by needEval — a dirty
// row d can only influence v when d ∈ list(v) ⊆ watch(v), i.e. when
// v ∈ rev(d) — and the third is checked explicitly per anchor: in the
// previous run a neighbor m was assigned at v's turn iff its old group's
// anchor precedes v (the greedy anchors every group at its minimum ID).
// When all three match, the candidate loop at v provably reproduces its
// old group, so the group is stitched through without touching it.
func (e *Engine) repartition(dirty map[int]struct{}) (adopted, reeval int) {
	needEval := make(map[int]struct{}, 2*len(dirty))
	for d := range dirty {
		needEval[d] = struct{}{}
		for w := range e.rev[d] {
			needEval[w] = struct{}{}
		}
	}

	oldGroups := e.groups
	oldGroupOf := e.groupOf
	// oldAnchor(m) is the minimum ID of m's previous group, or -1 when m
	// had none (a slot inserted this repair).
	oldAnchor := func(m int) int {
		gi := oldGroupOf[m]
		if gi < 0 || gi >= len(oldGroups) {
			return -1
		}
		return oldGroups[gi][0]
	}

	n := len(e.keys)
	assigned := make([]bool, n)
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	var groups [][]int
	for v := 0; v < n; v++ {
		if !e.live[v] || assigned[v] {
			continue
		}
		var g []int
		if _, ne := needEval[v]; !ne {
			g = e.tryAdopt(v, oldGroups, oldGroupOf, oldAnchor, assigned)
		}
		if g != nil {
			adopted++
		} else {
			reeval++
			g = core.LargestGroup(e.rows, e.prob, assigned, v, nil)
		}
		sort.Ints(g)
		gi := len(groups)
		groups = append(groups, g)
		for _, m := range g {
			assigned[m] = true
			groupOf[m] = gi
		}
	}
	// The walk emits groups in ascending anchor order and every group is
	// anchored at its minimum member, so the partition is already in
	// canonical order.
	e.groups = groups
	e.groupOf = groupOf
	return adopted, reeval
}

// tryAdopt returns v's previous group when the greedy walk at v provably
// reproduces it, or nil when v must be re-evaluated. Callers have already
// established that v's row and the rows of all its listed neighbors are
// unchanged (v ∉ needEval); what remains is the assigned-pattern check.
func (e *Engine) tryAdopt(v int, oldGroups [][]int, oldGroupOf []int, oldAnchor func(int) int, assigned []bool) []int {
	gi := oldGroupOf[v]
	if gi < 0 || gi >= len(oldGroups) {
		return nil
	}
	og := oldGroups[gi]
	if len(og) == 0 || og[0] != v {
		// v was absorbed into a group anchored earlier; that anchor's turn
		// already came and did not claim v, so v's situation changed.
		return nil
	}
	list := e.rows[v].NNList
	jmax := len(list) + 1
	if e.prob.Cut.MaxSize > 0 && jmax > e.prob.Cut.MaxSize {
		jmax = e.prob.Cut.MaxSize
	}
	for _, nb := range list[:jmax-1] {
		m := nb.ID
		oa := oldAnchor(m)
		if oa < 0 {
			return nil // m is new this repair; no old pattern to compare
		}
		if (oa < v) != assigned[m] {
			return nil // assignment state at v's turn differs from the old run
		}
	}
	// Same rows, same assigned pattern over every examined candidate: the
	// candidate loop reproduces og. Defensive liveness check, then copy
	// (the canonical sort must not mutate the old partition mid-walk).
	for _, m := range og {
		if !e.live[m] || (m != v && assigned[m]) {
			return nil
		}
	}
	return append([]int(nil), og...)
}
