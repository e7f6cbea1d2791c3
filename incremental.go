package fuzzydup

import (
	"fmt"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/incremental"
	"fuzzydup/internal/strutil"
)

// IncrementalSpec fixes the dedup problem an Incremental maintains. Unlike
// a Deduper — which answers many (K, θ, c) questions against one immutable
// dataset — an Incremental answers one question against a mutating
// dataset, so the cut and threshold are bound at construction.
type IncrementalSpec struct {
	// MaxSize is the DE_S(K) group-size bound; Theta the DE_D(θ) diameter
	// bound. Set one, or both for the combined cut. At least one is
	// required.
	MaxSize int
	Theta   float64
	// C is the sparse-neighborhood threshold (> 1).
	C float64
}

func (s IncrementalSpec) cut() core.Cut {
	return core.Cut{MaxSize: s.MaxSize, Diameter: s.Theta}
}

// RepairStats describes the work of one incremental repair; see the
// incremental package for field semantics.
type RepairStats = incremental.RepairStats

// Incremental maintains the duplicate groups of a mutating dataset: each
// Insert, Delete, or Update triggers a local repair (dirty-set phase-1
// relookup plus stitched partition) instead of a full recompute, and the
// resulting partition is always exactly what a from-scratch solve of the
// current records would produce.
//
// Records are identified by stable integer IDs assigned at insert; IDs of
// deleted records are reused. Not safe for concurrent use.
type Incremental struct {
	eng     *incremental.Engine
	records map[int]Record
	metric  distance.Metric
	spec    IncrementalSpec
}

// NewIncremental builds an incremental deduper over the initial records
// (which may be empty) under a fixed problem spec. Records get stable IDs
// 0..len(records)-1 in order.
//
// Only corpus-independent metrics are supported: the IDF-weighted metrics
// (fms, cosine, soft-tfidf) recompute every pairwise distance whenever
// the corpus changes, which is exactly the global recomputation
// incremental maintenance exists to avoid. Options.Index (other than
// the exact index), UseSQL, and Parallel are likewise rejected or
// ignored — repairs always measure exact distances over the live records.
func NewIncremental(records []Record, spec IncrementalSpec, opts Options) (*Incremental, error) {
	switch {
	case distance.CorpusDependent(string(opts.Metric)):
		return nil, fmt.Errorf("fuzzydup: metric %q is corpus-dependent (IDF weights change on every mutation); use a corpus-independent metric for incremental maintenance", opts.Metric)
	case opts.index() != IndexExact:
		return nil, fmt.Errorf("fuzzydup: incremental maintenance requires the exact index, not %q", opts.Index)
	case opts.UseSQL:
		return nil, fmt.Errorf("fuzzydup: incremental maintenance does not support the SQL phase-2 path")
	}
	keys := make([]string, len(records))
	for i, r := range records {
		keys[i] = strutil.JoinFields(r)
	}
	metric, agg, err := opts.resolve(keys)
	if err != nil {
		return nil, err
	}
	eng, err := incremental.New(keys, incremental.Config{
		Metric:         metric,
		Cut:            spec.cut(),
		Agg:            agg,
		C:              spec.C,
		P:              opts.P,
		MinimalCompact: opts.MinimalCompact,
		Exclude:        opts.Exclude,
		Tracer:         opts.Tracer,
	})
	if err != nil {
		return nil, err
	}
	recs := make(map[int]Record, len(records))
	for i, r := range records {
		recs[i] = r
	}
	return &Incremental{eng: eng, records: recs, metric: metric, spec: spec}, nil
}

// Len returns the number of live records.
func (inc *Incremental) Len() int { return inc.eng.Len() }

// IDs returns the live stable IDs in ascending order.
func (inc *Incremental) IDs() []int { return inc.eng.IDs() }

// Record returns the record stored under a stable ID.
func (inc *Incremental) Record(id int) (Record, bool) {
	r, ok := inc.records[id]
	return r, ok
}

// Insert adds a record, repairs the partition, and returns the record's
// stable ID.
func (inc *Incremental) Insert(rec Record) int {
	id := inc.eng.Insert(strutil.JoinFields(rec))
	inc.records[id] = rec
	return id
}

// Delete removes a record by stable ID and repairs the partition.
func (inc *Incremental) Delete(id int) error {
	if err := inc.eng.Delete(id); err != nil {
		return err
	}
	delete(inc.records, id)
	return nil
}

// Update replaces the record under a stable ID and repairs the partition.
func (inc *Incremental) Update(id int, rec Record) error {
	if err := inc.eng.Update(id, strutil.JoinFields(rec)); err != nil {
		return err
	}
	inc.records[id] = rec
	return nil
}

// Groups returns the current partition over stable IDs — exactly the
// partition a from-scratch Deduper solve of the live records would
// produce for the spec.
func (inc *Incremental) Groups() Groups { return Groups(inc.eng.Groups()) }

// LastRepair reports the work of the most recent mutation (or of the
// initial build): dirty-set size, adopted vs re-evaluated groups,
// distance calls, and phase timings.
func (inc *Incremental) LastRepair() RepairStats { return inc.eng.LastRepair() }

// Distance returns the configured metric's distance between two live
// records by stable ID.
func (inc *Incremental) Distance(a, b int) float64 {
	ka, _ := inc.eng.Key(a)
	kb, _ := inc.eng.Key(b)
	return inc.metric.Distance(ka, kb)
}

// Representative returns the medoid of a group of stable IDs, with the
// same tie-breaking as Deduper.Representative.
func (inc *Incremental) Representative(group []int) int {
	if len(group) == 0 {
		panic("fuzzydup: representative of empty group")
	}
	return core.Medoid(group, inc.Distance)
}
