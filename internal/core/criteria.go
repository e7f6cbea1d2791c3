// Package core implements the paper's contribution: the compact-set (CS)
// and sparse-neighborhood (SN) criteria, the duplicate-elimination problem
// formulations DE_S(K) and DE_D(θ), and the scalable two-phase algorithm
// that solves them (nearest-neighbor computation in breadth-first lookup
// order, then partitioning via compact-set pair equalities).
//
// Terminology follows the paper (Sections 2-4):
//
//   - nn(v): distance from tuple v to its nearest neighbor.
//   - N(v): the neighborhood of v, a sphere of radius p·nn(v) (p = 2).
//   - ng(v): neighborhood growth, the number of tuples inside N(v);
//     by the paper's formula ng(v) = |{u : d(u,v) < p·nn(v)}| the tuple
//     itself counts, so ng(v) >= 2 whenever the relation has >= 2 tuples.
//   - compact set: a set S where every member is closer to every other
//     member than to any tuple outside S (mutual nearest neighbors).
//   - SN(AGG, c) group: a set S with AGG({ng(v) : v in S}) < c, or |S| = 1.
//
// The i-neighbor set of v used by the CSi equalities is the closed set
// {v} ∪ {first i-1 nearest neighbors of v}; with this reading CS2 is
// exactly "mutual nearest neighbors" and the paper's Figure 6 example
// reproduces verbatim (see DESIGN.md, "Interpretation choices").
package core

import (
	"fmt"
	"sort"

	"fuzzydup/internal/nnindex"
)

// DefaultP is the growth-sphere factor p; the paper fixes p = 2.
const DefaultP = 2.0

// Agg selects the aggregation function of the SN criterion.
type Agg int

// Aggregation functions evaluated in the paper (Figure 7).
const (
	// AggMax requires every member's neighborhood growth below c.
	AggMax Agg = iota
	// AggAvg requires the mean neighborhood growth below c.
	AggAvg
	// AggMax2 requires the second-largest neighborhood growth below c,
	// tolerating one dense member.
	AggMax2
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggMax2:
		return "max2"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// ParseAgg is the inverse of String: it resolves an aggregation's name,
// with "" selecting AggMax, the default.
func ParseAgg(name string) (Agg, error) {
	switch name {
	case "", "max":
		return AggMax, nil
	case "avg":
		return AggAvg, nil
	case "max2":
		return AggMax2, nil
	}
	return 0, fmt.Errorf("core: unknown aggregation %q", name)
}

// Apply aggregates the neighborhood growths of a group's members.
// It panics on an empty slice; the SN criterion never aggregates an empty
// group (singletons are SN by definition).
func (a Agg) Apply(ngs []int) float64 {
	if len(ngs) == 0 {
		panic("core: aggregation over empty group")
	}
	switch a {
	case AggMax:
		m := ngs[0]
		for _, v := range ngs[1:] {
			if v > m {
				m = v
			}
		}
		return float64(m)
	case AggAvg:
		s := 0
		for _, v := range ngs {
			s += v
		}
		return float64(s) / float64(len(ngs))
	case AggMax2:
		if len(ngs) == 1 {
			return float64(ngs[0])
		}
		first, second := ngs[0], ngs[1]
		if second > first {
			first, second = second, first
		}
		for _, v := range ngs[2:] {
			switch {
			case v > first:
				first, second = v, first
			case v > second:
				second = v
			}
		}
		return float64(second)
	default:
		panic(fmt.Sprintf("core: unknown aggregation %d", int(a)))
	}
}

// Cut is the paper's Section 3 "cut" specification that makes the DE
// problem well-behaved: the size specification K of DE_S, the diameter
// specification θ of DE_D, or — as Section 3 notes is possible — both
// together (groups of at most K tuples whose diameter stays below θ).
type Cut struct {
	// MaxSize bounds group sizes: |G| <= MaxSize. Zero means unset.
	MaxSize int
	// Diameter bounds the maximum pairwise distance within a group:
	// Diameter(G) < Diameter (realized by restricting neighbor lists to
	// radius Diameter). Zero means unset.
	Diameter float64
}

// Validate reports whether the cut selects at least one specification
// with sensible values.
func (c Cut) Validate() error {
	sizeSet := c.MaxSize != 0
	diamSet := c.Diameter != 0
	switch {
	case !sizeSet && !diamSet:
		return fmt.Errorf("core: cut sets neither size nor diameter")
	case sizeSet && c.MaxSize < 2:
		return fmt.Errorf("core: size cut K = %d must be >= 2", c.MaxSize)
	case diamSet && (c.Diameter < 0 || c.Diameter > 1):
		return fmt.Errorf("core: diameter cut θ = %g must be in (0, 1]", c.Diameter)
	}
	return nil
}

// IsSize reports whether neighbor lists are bounded by count alone (a pure
// DE_S(K) cut). When a diameter is set — alone or combined with a size —
// phase 1 fetches range lists instead, and the size bound (if any) caps
// the group size during partitioning.
func (c Cut) IsSize() bool { return c.MaxSize != 0 && c.Diameter == 0 }

// String implements fmt.Stringer.
func (c Cut) String() string {
	switch {
	case c.MaxSize != 0 && c.Diameter != 0:
		return fmt.Sprintf("DE_SD(%d, %.3g)", c.MaxSize, c.Diameter)
	case c.MaxSize != 0:
		return fmt.Sprintf("DE_S(%d)", c.MaxSize)
	default:
		return fmt.Sprintf("DE_D(%.3g)", c.Diameter)
	}
}

// Problem is a full instantiation of the DE problem within the paper's
// framework: the cut, the SN aggregation and threshold, the growth factor,
// and the optional extensions of Section 4.4.
type Problem struct {
	// Cut selects DE_S(K) or DE_D(θ).
	Cut Cut
	// Agg is the SN aggregation function (default AggMax).
	Agg Agg
	// C is the sparse-neighborhood threshold c (> 1). Groups require
	// Agg({ng}) < C.
	C float64
	// P is the growth-sphere factor; zero selects DefaultP (= 2).
	P float64
	// MinimalCompact, when set, applies the Section 4.4.2 post-processing:
	// groups that are unions of disjoint non-trivial compact sets are split
	// into minimal compact sets.
	MinimalCompact bool
	// Exclude is the Section 4.4.1 constraining predicate: when non-nil
	// and Exclude(a, b) is true, tuples a and b may not share a group.
	Exclude func(a, b int) bool
}

// Validate checks the problem parameters.
func (p Problem) Validate() error {
	if err := p.Cut.Validate(); err != nil {
		return err
	}
	if p.C <= 1 {
		return fmt.Errorf("core: SN threshold c = %g must exceed 1", p.C)
	}
	if p.P < 0 {
		return fmt.Errorf("core: growth factor p = %g must be positive", p.P)
	}
	return nil
}

func (p Problem) growthFactor() float64 {
	if p.P == 0 {
		return DefaultP
	}
	return p.P
}

// NNRow is one row of the phase-1 output relation NN_Reln(ID, NN-List, NG):
// a tuple's ordered neighbor list and its neighborhood growth.
type NNRow struct {
	// NNList holds the K nearest neighbors (size cut) or all neighbors
	// within θ (diameter cut), ordered by ascending (distance, ID).
	NNList []nnindex.Neighbor
	// NG is the neighborhood growth ng(v), self-inclusive per the paper's
	// formula.
	NG int
}

// NNRelation is the materialized phase-1 output for a relation; row i
// describes tuple i.
type NNRelation struct {
	Rows []NNRow
	// Cut records which specification the lists were computed for.
	Cut Cut
	// P records the growth factor used for the NG column.
	P float64
}

// ReverseNN returns the reverse nearest-neighbor adjacency of the
// relation: out[u] lists, in ascending order, every tuple v whose NN-List
// references u. This is the bookkeeping a local repair needs after a data
// change — only tuples that reference a changed tuple (or that the changed
// tuple newly reaches) can see their phase-2 decisions move, which is what
// the paper's split/merge consistency makes principled.
func (r *NNRelation) ReverseNN() [][]int {
	out := make([][]int, len(r.Rows))
	for v, row := range r.Rows {
		for _, nb := range row.NNList {
			out[nb.ID] = append(out[nb.ID], v)
		}
	}
	for _, refs := range out {
		sort.Ints(refs)
	}
	return out
}

// NGValues returns the NG column, the input to the SN-threshold estimator.
func (r *NNRelation) NGValues() []int {
	ngs := make([]int, len(r.Rows))
	for i, row := range r.Rows {
		ngs[i] = row.NG
	}
	return ngs
}

// TruncateSize derives a DE_S(k) NN relation from one computed at a
// larger K by truncating each neighbor prefix — valid because top-K lists
// are prefixes of top-K' lists for K <= K', and NG does not depend on the
// cut. It panics if the source relation is narrower than k.
func (r *NNRelation) TruncateSize(k int) *NNRelation {
	if !r.Cut.IsSize() || r.Cut.MaxSize < k {
		panic(fmt.Sprintf("core: cannot truncate %v to DE_S(%d)", r.Cut, k))
	}
	out := &NNRelation{Rows: make([]NNRow, len(r.Rows)), Cut: Cut{MaxSize: k}, P: r.P}
	for i, row := range r.Rows {
		list := row.NNList
		if len(list) > k {
			list = list[:k]
		}
		out.Rows[i] = NNRow{NNList: list, NG: row.NG}
	}
	return out
}

// TruncateDiameter derives a DE_D(theta) NN relation from one computed at
// a larger θ by cutting each list at the first distance >= theta. It
// panics if the source relation is narrower than theta.
func (r *NNRelation) TruncateDiameter(theta float64) *NNRelation {
	if r.Cut.Diameter == 0 || r.Cut.Diameter < theta {
		panic(fmt.Sprintf("core: cannot truncate %v to DE_D(%g)", r.Cut, theta))
	}
	out := &NNRelation{Rows: make([]NNRow, len(r.Rows)), Cut: Cut{Diameter: theta}, P: r.P}
	for i, row := range r.Rows {
		cut := len(row.NNList)
		for j, n := range row.NNList {
			if n.Dist >= theta {
				cut = j
				break
			}
		}
		out.Rows[i] = NNRow{NNList: row.NNList[:cut], NG: row.NG}
	}
	return out
}

// closureEqual reports CSj(v, u): whether the closed j-neighbor sets
// {v} ∪ top_{j-1}(v) and {u} ∪ top_{j-1}(u) coincide. It returns false
// when either list is too short to contain j-1 neighbors.
func closureEqual(rows []NNRow, v, u, j int) bool {
	if j < 2 || len(rows[v].NNList) < j-1 || len(rows[u].NNList) < j-1 {
		return false
	}
	set := make(map[int]struct{}, j)
	set[v] = struct{}{}
	for _, n := range rows[v].NNList[:j-1] {
		set[n.ID] = struct{}{}
	}
	if len(set) != j {
		return false
	}
	if _, ok := set[u]; !ok {
		return false
	}
	count := 0
	if _, ok := set[u]; ok {
		count = 1 // u itself
	}
	for _, n := range rows[u].NNList[:j-1] {
		if _, ok := set[n.ID]; !ok {
			return false
		}
		count++
	}
	return count == j
}

// IsCompactSet reports whether the candidate group consisting of v and its
// first j-1 nearest neighbors is a compact set, judged purely from the
// phase-1 neighbor lists: every member's closed j-neighbor set must equal
// v's. Set equality is transitive, so pairwise equality against v suffices
// (the paper's partitioning-step observation).
func IsCompactSet(rows []NNRow, v, j int) bool {
	if j < 2 || len(rows[v].NNList) < j-1 {
		return false
	}
	for _, n := range rows[v].NNList[:j-1] {
		if !closureEqual(rows, v, n.ID, j) {
			return false
		}
	}
	return true
}

// SNHolds reports whether the group satisfies SN(agg, c) given the NG
// column: singletons pass by definition; otherwise the aggregate of member
// growths must be strictly below c.
func SNHolds(rows []NNRow, group []int, agg Agg, c float64) bool {
	if len(group) <= 1 {
		return true
	}
	ngs := make([]int, len(group))
	for i, id := range group {
		ngs[i] = rows[id].NG
	}
	return agg.Apply(ngs) < c
}

// SortGroups orders a partition canonically in place: members ascending
// within each group, groups by smallest member. It returns groups.
func SortGroups(groups [][]int) [][]int {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
