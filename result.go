package fuzzydup

import (
	"sort"

	"fuzzydup/internal/core"
)

// The elimination half of "detect and eliminate": once duplicate groups
// are known, each group is collapsed to a single representative record.

// Representative returns the medoid of a group: the member with the
// smallest total distance to the other members (ties broken by the lowest
// record index). For singletons it returns the sole member; it panics on
// an empty group, which no Groups value ever contains.
func (d *Deduper) Representative(group []int) int {
	if len(group) == 0 {
		panic("fuzzydup: representative of empty group")
	}
	return core.Medoid(group, d.Distance)
}

// Eliminate collapses each duplicate group to its representative and
// returns the surviving record indices in ascending order, plus a map
// from every eliminated record to the representative that replaced it.
func (d *Deduper) Eliminate(groups Groups) (kept []int, replacedBy map[int]int) {
	replacedBy = make(map[int]int)
	for _, g := range groups {
		rep := d.Representative(g)
		kept = append(kept, rep)
		for _, id := range g {
			if id != rep {
				replacedBy[id] = rep
			}
		}
	}
	sort.Ints(kept)
	return kept, replacedBy
}

// Deduplicated runs Eliminate and materializes the surviving records.
func (d *Deduper) Deduplicated(groups Groups) []Record {
	kept, _ := d.Eliminate(groups)
	out := make([]Record, len(kept))
	for i, id := range kept {
		out[i] = d.records[id]
	}
	return out
}
