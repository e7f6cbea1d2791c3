package core

import (
	"fmt"

	"fuzzydup/internal/nnindex"
)

// Partition runs phase 2: from the NN relation, partition the tuples into
// the minimum number of groups such that each group is a compact set, an
// SN(Agg, C) group, and satisfies the cut specification. The result is a
// full partition of 0..n-1 (singletons included), canonically ordered.
//
// The algorithm follows Section 4.2: process tuples in ascending ID order;
// for an unassigned tuple v, find the largest non-trivial compact SN group
// {v} ∪ top_{j-1}(v) that also satisfies the cut and the optional
// constraining predicate, emit it, and mark its members. Compactness is
// decided by the pairwise CSj equalities of the CSPairs construction; set
// equality being transitive, comparing every member against v suffices.
func Partition(rel *NNRelation, prob Problem) ([][]int, error) {
	return PartitionWithStats(rel, prob, nil)
}

// PartitionStats counts the work and the decisions of one Partition run:
// how many candidate groups were examined, why rejected candidates fell
// out (the CS/SN criteria make every decision inspectable — the counters
// aggregate the same facts ExplainPair reports per pair), and how many
// non-minimal groups the Section 4.4.2 post-processing split.
type PartitionStats struct {
	// Groups is the number of groups in the final partition, singletons
	// included; Duplicates counts only groups of size >= 2.
	Groups     int
	Duplicates int
	// Candidates is the number of candidate (anchor, size) groups
	// examined across all anchors.
	Candidates int
	// RejectedAssigned counts candidates containing an already-assigned
	// member; RejectedCompact candidates failing the compact-set check;
	// RejectedSN candidates failing the sparse-neighborhood check;
	// RejectedExcluded candidates vetoed by the constraining predicate.
	RejectedAssigned int
	RejectedCompact  int
	RejectedSN       int
	RejectedExcluded int
	// Splits is the number of groups the minimal-compact post-processing
	// decomposed (0 unless Problem.MinimalCompact).
	Splits int
}

// PartitionWithStats is Partition with instrumentation: when stats is
// non-nil it is filled with the run's counters. Passing nil costs nothing
// measurable — Partition is the cheap phase.
func PartitionWithStats(rel *NNRelation, prob Problem, stats *PartitionStats) ([][]int, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if prob.Cut != rel.Cut {
		return nil, fmt.Errorf("core: NN relation computed for %v, problem asks %v", rel.Cut, prob.Cut)
	}
	if stats == nil {
		stats = &PartitionStats{} // discard: keeps the hot loop branch-free
	}
	n := len(rel.Rows)
	assigned := make([]bool, n)
	groups := make([][]int, 0, n)
	for v := 0; v < n; v++ {
		if assigned[v] {
			continue
		}
		g := LargestGroup(rel.Rows, prob, assigned, v, stats)
		for _, id := range g {
			assigned[id] = true
		}
		groups = append(groups, g)
	}
	if prob.MinimalCompact {
		groups = splitNonMinimal(rel, groups, stats)
	}
	groups = SortGroups(groups)
	stats.Groups = len(groups)
	for _, g := range groups {
		if len(g) >= 2 {
			stats.Duplicates++
		}
	}
	return groups, nil
}

// LargestGroup is one step of the greedy walk: the largest candidate
// {v} ∪ top_{j-1}(v) over rows that has no assigned member and is
// compact, SN(prob.Agg, prob.C), within the cut and not excluded, or the
// singleton {v} when none is. Partition runs it at every unassigned
// anchor in ascending ID order; the incremental engine runs it at the
// anchors a repair cannot adopt. stats, when non-nil, counts the
// candidates examined and why each was rejected.
func LargestGroup(rows []NNRow, prob Problem, assigned []bool, v int, stats *PartitionStats) []int {
	if stats == nil {
		stats = &PartitionStats{}
	}
	list := rows[v].NNList
	jmax := len(list) + 1
	if prob.Cut.MaxSize > 0 && jmax > prob.Cut.MaxSize {
		jmax = prob.Cut.MaxSize
	}
	for j := jmax; j >= 2; j-- {
		stats.Candidates++
		group := make([]int, 0, j)
		group = append(group, v)
		ok := true
		for _, nb := range list[:j-1] {
			if assigned[nb.ID] {
				ok = false
				break
			}
			group = append(group, nb.ID)
		}
		if !ok {
			stats.RejectedAssigned++
			continue
		}
		if !IsCompactSet(rows, v, j) {
			stats.RejectedCompact++
			continue
		}
		if !SNHolds(rows, group, prob.Agg, prob.C) {
			stats.RejectedSN++
			continue
		}
		if prob.Exclude != nil && violatesExclude(group, prob.Exclude) {
			stats.RejectedExcluded++
			continue
		}
		return group
	}
	return []int{v}
}

// violatesExclude reports whether any pair in the group is ruled out by
// the constraining predicate (Section 4.4.1).
func violatesExclude(group []int, exclude func(a, b int) bool) bool {
	for i := 0; i < len(group); i++ {
		for k := i + 1; k < len(group); k++ {
			if exclude(group[i], group[k]) {
				return true
			}
		}
	}
	return false
}

// splitNonMinimal applies the Section 4.4.2 minimality post-processing:
// a group that contains two disjoint non-trivial compact subsets is a
// merger of smaller compact sets and is split into minimal pieces.
func splitNonMinimal(rel *NNRelation, groups [][]int, stats *PartitionStats) [][]int {
	var out [][]int
	for _, g := range groups {
		pieces := SplitMinimal(rel.Rows, g)
		if len(pieces) > 1 {
			stats.Splits++
		}
		out = append(out, pieces...)
	}
	return out
}

// SplitMinimal decomposes one group into minimal compact sets (the
// Section 4.4.2 post-processing applied to a single group). It is a pure
// function of the group's members' NN rows, which is what lets the
// incremental engine re-split only repaired groups. Proper non-trivial
// compact subsets of a group are closures of their members, so it suffices
// to scan each member's closures that stay inside the group.
func SplitMinimal(rows []NNRow, g []int) [][]int {
	if len(g) <= 2 {
		return [][]int{g}
	}
	inG := make(map[int]struct{}, len(g))
	for _, id := range g {
		inG[id] = struct{}{}
	}
	// Collect proper compact sub-closures, smallest first, so the
	// decomposition prefers minimal pieces.
	type sub struct {
		members []int
		size    int
	}
	var subs []sub
	for _, v := range g {
		maxJ := len(g) - 1 // proper subsets only
		if l := len(rows[v].NNList) + 1; l < maxJ {
			maxJ = l
		}
		for j := 2; j <= maxJ; j++ {
			if !IsCompactSet(rows, v, j) {
				continue
			}
			members := []int{v}
			inside := true
			for _, nb := range rows[v].NNList[:j-1] {
				if _, ok := inG[nb.ID]; !ok {
					inside = false
					break
				}
				members = append(members, nb.ID)
			}
			if inside {
				subs = append(subs, sub{members: members, size: j})
			}
		}
	}
	if len(subs) == 0 {
		return [][]int{g}
	}
	// The group is non-minimal only if two *disjoint* non-trivial compact
	// subsets exist. Greedily take the smallest disjoint sub-closures.
	taken := make(map[int]struct{})
	var pieces [][]int
	for size := 2; size < len(g); size++ {
		for _, s := range subs {
			if s.size != size {
				continue
			}
			disjoint := true
			for _, id := range s.members {
				if _, ok := taken[id]; ok {
					disjoint = false
					break
				}
			}
			if !disjoint {
				continue
			}
			for _, id := range s.members {
				taken[id] = struct{}{}
			}
			pieces = append(pieces, s.members)
		}
	}
	if len(pieces) < 2 {
		// At most one compact subset: no disjoint pair, the group is
		// already minimal.
		return [][]int{g}
	}
	// Leftover members become singletons.
	for _, id := range g {
		if _, ok := taken[id]; !ok {
			pieces = append(pieces, []int{id})
		}
	}
	return pieces
}

// Solve runs both phases end to end against a nearest-neighbor index.
// It returns the partition and the intermediate NN relation (useful for
// diagnostics and for the SN-threshold estimator).
func Solve(idx nnindex.Index, prob Problem, opts Phase1Options) ([][]int, *NNRelation, error) {
	if err := prob.Validate(); err != nil {
		return nil, nil, err
	}
	rel, err := ComputeNN(idx, prob.Cut, prob.growthFactor(), opts)
	if err != nil {
		return nil, nil, err
	}
	groups, err := Partition(rel, prob)
	if err != nil {
		return nil, nil, err
	}
	return groups, rel, nil
}

// Diameter returns the maximum pairwise distance within the group under
// the given index; used by tests to verify the DE_D(θ) guarantee.
func Diameter(idx *nnindex.Exact, group []int) float64 {
	var d float64
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			if dd := idx.Distance(group[i], group[j]); dd > d {
				d = dd
			}
		}
	}
	return d
}

// Medoid returns the member of a non-empty group with the smallest total
// distance to the other members, ties broken by the lowest ID: the
// representative a duplicate group collapses to on every dedup path.
func Medoid(group []int, dist func(a, b int) float64) int {
	best, bestTotal := group[0], -1.0
	for _, cand := range group {
		total := 0.0
		for _, other := range group {
			if other != cand {
				total += dist(cand, other)
			}
		}
		if bestTotal < 0 || total < bestTotal || (total == bestTotal && cand < best) {
			best, bestTotal = cand, total
		}
	}
	return best
}
