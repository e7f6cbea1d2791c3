// Package experiments contains one driver per table/figure of the paper's
// evaluation (Section 5), each returning typed rows/series plus a Format
// method that prints the same quantities the paper plots. The
// per-experiment index in DESIGN.md maps experiment IDs to these drivers;
// cmd/experiments and the repository-root benchmarks invoke them.
package experiments

import (
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
)

// buildIndex constructs the requested index flavor over the keys.
func buildIndex(keys []string, metric distance.Metric, useQGram bool) (nnindex.Index, error) {
	if useQGram {
		return nnindex.NewQGram(keys, metric, nnindex.QGramConfig{})
	}
	return nnindex.NewExact(keys, metric), nil
}

// loadDataset builds the named dataset at the given size and seed.
func loadDataset(name string, size int, seed int64) (*dataset.Dataset, error) {
	if name == "table1" {
		return dataset.Table1(), nil
	}
	return dataset.ByName(name, dataset.Config{Size: size, Seed: seed})
}
