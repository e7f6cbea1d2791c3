package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"fuzzydup/internal/baseline"
	"fuzzydup/internal/blocking"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/eval"
	"fuzzydup/internal/nnindex"
)

// Ablations beyond the paper, indexed in DESIGN.md: dropping one of the
// two criteria, swapping the exact index for the probabilistic one, and
// running phase 2 through SQL.

// CriteriaRow is one configuration of the criteria ablation.
type CriteriaRow struct {
	Config    string
	Precision float64
	Recall    float64
	F1        float64
}

// CriteriaResult compares full DE against CS-only and SN-only variants.
type CriteriaResult struct {
	Dataset string
	Rows    []CriteriaRow
}

// CriteriaAblation runs DE_S(K) with both criteria, with CS only (c = ∞ so
// SN never rejects), and an SN-only variant (single-linkage groups kept
// only when they satisfy SN). Both criteria are needed: CS-only admits
// groups inside dense confusable series; SN-only inherits the chaining
// false-positives of single linkage.
func CriteriaAblation(dsName string, size int, seed int64, k int, c float64, theta float64) (*CriteriaResult, error) {
	ds, err := loadDataset(dsName, size, seed)
	if err != nil {
		return nil, err
	}
	keys := ds.Keys()
	metric, err := distance.ByName("ed", keys)
	if err != nil {
		return nil, err
	}
	idx, err := buildIndex(keys, metric, false)
	if err != nil {
		return nil, err
	}
	rel, err := core.ComputeNN(idx, core.Cut{MaxSize: k}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}

	res := &CriteriaResult{Dataset: ds.Name}
	record := func(name string, groups [][]int) {
		pr := eval.PrecisionRecall(groups, ds.Truth)
		res.Rows = append(res.Rows, CriteriaRow{Config: name, Precision: pr.Precision, Recall: pr.Recall, F1: pr.F1()})
	}

	full, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: k}, Agg: core.AggMax, C: c})
	if err != nil {
		return nil, err
	}
	record("CS+SN (full)", full)

	csOnly, err := core.Partition(rel, core.Problem{Cut: core.Cut{MaxSize: k}, Agg: core.AggMax, C: math.Inf(1)})
	if err != nil {
		return nil, err
	}
	record("CS only (c=inf)", csOnly)

	// SN-only: single-linkage components at theta, kept only when they
	// satisfy SN; rejected components dissolve into singletons.
	relD, err := core.ComputeNN(idx, core.Cut{Diameter: theta}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}
	lists := make([][]nnindex.Neighbor, len(relD.Rows))
	for i, row := range relD.Rows {
		lists[i] = row.NNList
	}
	var snOnly [][]int
	for _, g := range baseline.SingleLinkage(ds.Len(), lists, theta) {
		if core.SNHolds(relD.Rows, g, core.AggMax, c) {
			snOnly = append(snOnly, g)
		} else {
			for _, id := range g {
				snOnly = append(snOnly, []int{id})
			}
		}
	}
	record("SN only (thr+SN)", snOnly)

	thr := baseline.SingleLinkage(ds.Len(), lists, theta)
	record("neither (thr)", thr)
	return res, nil
}

// Format renders the criteria ablation table.
func (r *CriteriaResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: criteria ablation\n", r.Dataset)
	fmt.Fprintf(&b, "  %-18s %-10s %-10s %-10s\n", "config", "precision", "recall", "F1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %-10.3f %-10.3f %-10.3f\n", row.Config, row.Precision, row.Recall, row.F1)
	}
	return b.String()
}

// BlockingRow is one candidate-generation scheme's outcome.
type BlockingRow struct {
	Scheme       string
	DupCoverage  float64 // fraction of true duplicate pairs retained
	NNCoverage   float64 // fraction of (tuple, K-NN) pairs retained
	GrowthIntact float64 // fraction of tuples whose ng(v) would survive
	Reduction    float64 // comparison-space reduction ratio
}

// BlockingResult quantifies Section 6's argument against blocking.
type BlockingResult struct {
	Dataset string
	K       int
	Rows    []BlockingRow
}

// BlockingAblation measures, for standard candidate generators, how much
// of what the CS/SN framework *needs* survives: not just the true
// duplicate pairs (which blocking is designed to keep), but every
// (tuple, nearest-neighbor) pair — because a missed NN pair silently
// corrupts nn(v), ng(v), and the mutual-NN structure. The paper's §6:
// blocking approaches "do not guarantee that all required nearest
// neighbors of a tuple are also in the same block. Hence, we are unable
// to use these blocking strategies."
func BlockingAblation(dsName string, size int, seed int64, k int) (*BlockingResult, error) {
	ds, err := loadDataset(dsName, size, seed)
	if err != nil {
		return nil, err
	}
	keys := ds.Keys()
	metric, err := distance.ByName("ed", keys)
	if err != nil {
		return nil, err
	}
	idx := nnindex.NewExact(keys, metric)
	rel, err := core.ComputeNN(idx, core.Cut{MaxSize: k}, core.DefaultP, core.Phase1Options{})
	if err != nil {
		return nil, err
	}
	// The pairs phase 1 requires: every tuple with each of its K nearest
	// neighbors, and each tuple with everything inside its growth sphere.
	nnPairs := make(map[[2]int]bool)
	growthPairs := make(map[int]map[[2]int]bool) // per-tuple sphere pairs
	for v, row := range rel.Rows {
		growthPairs[v] = make(map[[2]int]bool)
		if len(row.NNList) == 0 {
			continue
		}
		sphere := 2 * row.NNList[0].Dist
		for _, nb := range row.NNList {
			a, b := v, nb.ID
			if a > b {
				a, b = b, a
			}
			nnPairs[[2]int{a, b}] = true
			if nb.Dist < sphere {
				growthPairs[v][[2]int{a, b}] = true
			}
		}
	}

	schemes := []struct {
		name  string
		pairs map[[2]int]bool
	}{
		{"first4chars", blocking.CandidatePairs(keys, blocking.FirstNChars(4))},
		{"soundex1st", blocking.CandidatePairs(keys, blocking.SoundexFirstToken())},
		{"tokens>=4", blocking.CandidatePairs(keys, blocking.TokenKeys(4))},
		{"multi-key", blocking.CandidatePairs(keys,
			blocking.FirstNChars(4), blocking.SoundexFirstToken(), blocking.TokenKeys(4))},
		{"snm w=10 x2", blocking.SortedNeighborhood(keys, 10,
			blocking.NormalizedOrder(), blocking.ReversedTokenOrder())},
	}
	res := &BlockingResult{Dataset: ds.Name, K: k}
	for _, s := range schemes {
		intact := 0
		for v := range rel.Rows {
			ok := true
			for p := range growthPairs[v] {
				if !s.pairs[p] {
					ok = false
					break
				}
			}
			if ok {
				intact++
			}
		}
		res.Rows = append(res.Rows, BlockingRow{
			Scheme:       s.name,
			DupCoverage:  blocking.Coverage(s.pairs, ds.TruePairs()),
			NNCoverage:   blocking.Coverage(s.pairs, nnPairs),
			GrowthIntact: float64(intact) / float64(ds.Len()),
			Reduction:    blocking.ReductionRatio(s.pairs, ds.Len()),
		})
	}
	return res, nil
}

// Format renders the blocking ablation table.
func (r *BlockingResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: what survives candidate generation (K=%d)\n", r.Dataset, r.K)
	fmt.Fprintf(&b, "  %-14s %-10s %-10s %-12s %-10s\n", "scheme", "dup-cov", "nn-cov", "ng-intact", "reduction")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %-10.3f %-10.3f %-12.3f %-10.3f\n",
			row.Scheme, row.DupCoverage, row.NNCoverage, row.GrowthIntact, row.Reduction)
	}
	return b.String()
}

// IndexParity compares end-to-end partitions under the exact index and the
// probabilistic q-gram index — the paper's "we treat these probabilistic
// indexes as exact" assumption, quantified.
type IndexParity struct {
	Dataset       string
	N             int
	SamePartition bool
	ExactF1       float64
	QGramF1       float64
}

// IndexAblation runs DE_S(K) under both index flavors.
func IndexAblation(dsName string, size int, seed int64, k int, c float64) (*IndexParity, error) {
	ds, err := loadDataset(dsName, size, seed)
	if err != nil {
		return nil, err
	}
	keys := ds.Keys()
	metric, err := distance.ByName("ed", keys)
	if err != nil {
		return nil, err
	}
	prob := core.Problem{Cut: core.Cut{MaxSize: k}, Agg: core.AggMax, C: c}

	exact := nnindex.NewExact(keys, metric)
	exactGroups, _, err := core.Solve(exact, prob, core.Phase1Options{})
	if err != nil {
		return nil, err
	}
	qg, err := nnindex.NewQGram(keys, metric, nnindex.QGramConfig{})
	if err != nil {
		return nil, err
	}
	qgGroups, _, err := core.Solve(qg, prob, core.Phase1Options{})
	if err != nil {
		return nil, err
	}
	return &IndexParity{
		Dataset:       ds.Name,
		N:             ds.Len(),
		SamePartition: reflect.DeepEqual(exactGroups, qgGroups),
		ExactF1:       eval.PrecisionRecall(exactGroups, ds.Truth).F1(),
		QGramF1:       eval.PrecisionRecall(qgGroups, ds.Truth).F1(),
	}, nil
}

// Format renders the index-parity summary.
func (p *IndexParity) Format() string {
	return fmt.Sprintf("%s (n=%d): exact F1=%.3f, qgram F1=%.3f, identical partition=%v\n",
		p.Dataset, p.N, p.ExactF1, p.QGramF1, p.SamePartition)
}

// IndexSweepRow is one index flavor's end-to-end outcome.
type IndexSweepRow struct {
	Index     string
	F1        float64
	Phase1    time.Duration
	BuildTime time.Duration
}

// IndexSweepResult compares all index flavors end to end.
type IndexSweepResult struct {
	Dataset string
	N       int
	Rows    []IndexSweepRow
}

// IndexSweep runs DE_S(K) under every index implementation — exact scan,
// q-gram inverted index, vantage-point tree, MinHash-LSH — and reports
// quality and phase-1 time for each. The exact index is the quality
// reference; the others trade (usually nothing, occasionally a little)
// recall of far neighbors for sublinear lookups.
func IndexSweep(dsName string, size int, seed int64, k int, c float64) (*IndexSweepResult, error) {
	ds, err := loadDataset(dsName, size, seed)
	if err != nil {
		return nil, err
	}
	keys := ds.Keys()
	metric, err := distance.ByName("ed", keys)
	if err != nil {
		return nil, err
	}
	prob := core.Problem{Cut: core.Cut{MaxSize: k}, Agg: core.AggMax, C: c}
	res := &IndexSweepResult{Dataset: ds.Name, N: ds.Len()}

	type build struct {
		name string
		mk   func() (nnindex.Index, error)
	}
	builds := []build{
		{"exact", func() (nnindex.Index, error) { return nnindex.NewExact(keys, metric), nil }},
		{"qgram", func() (nnindex.Index, error) {
			return nnindex.NewQGram(keys, metric, nnindex.QGramConfig{})
		}},
		{"vptree", func() (nnindex.Index, error) { return nnindex.NewVPTree(keys, metric), nil }},
		{"minhash", func() (nnindex.Index, error) {
			return nnindex.NewMinHash(keys, metric, nnindex.MinHashConfig{})
		}},
	}
	for _, b := range builds {
		start := time.Now()
		idx, err := b.mk()
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(start)
		start = time.Now()
		groups, _, err := core.Solve(idx, prob, core.Phase1Options{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, IndexSweepRow{
			Index:     b.name,
			F1:        eval.PrecisionRecall(groups, ds.Truth).F1(),
			Phase1:    time.Since(start),
			BuildTime: buildTime,
		})
	}
	return res, nil
}

// Format renders the index sweep table.
func (r *IndexSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d): DE_S quality and cost by index flavor\n", r.Dataset, r.N)
	fmt.Fprintf(&b, "  %-10s %-8s %-12s %-12s\n", "index", "F1", "build", "solve")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-8.3f %-12v %-12v\n",
			row.Index, row.F1, row.BuildTime.Round(time.Millisecond), row.Phase1.Round(time.Millisecond))
	}
	return b.String()
}
