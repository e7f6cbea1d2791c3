// Command dedup detects fuzzy duplicates in a CSV file using the CS/SN
// framework. Each CSV row is one record; all columns participate in the
// distance computation.
//
// Usage:
//
//	dedup -input data.csv -mode size -k 3 -c 4
//	dedup -input data.csv -mode diameter -theta 0.3 -estimate-f 0.2 -metric fms
//	dedup -data-dir /var/lib/dedupd -dataset ds-000001 -k 3
//
// Instead of a CSV, -data-dir reads a dataset straight out of a dedupd
// data directory (read-only — nothing is created, truncated, or
// deleted, so it is safe against a live daemon's directory). -dataset
// picks the dataset by ID when the directory holds more than one.
//
// Output: one line per duplicate group, listing the 1-based row numbers
// and the record contents.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"fuzzydup"
	"fuzzydup/internal/dataset"
	"fuzzydup/internal/durable"
	"fuzzydup/internal/eval"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dedup: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is main minus process concerns, so error paths are testable: it
// parses args, reads the input, solves, and prints to stdout, returning
// any error instead of exiting.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input     = fs.String("input", "", "CSV file to deduplicate (default stdin)")
		dataDir   = fs.String("data-dir", "", "read records from a dedupd data directory instead of CSV")
		datasetID = fs.String("dataset", "", "dataset ID inside -data-dir (default: the only dataset)")
		metric    = fs.String("metric", "ed", "distance function: ed, fms, cosine, jaccard, jaro, jaro-winkler, monge-elkan, soft-tfidf, soundex")
		mode      = fs.String("mode", "size", "cut specification: size (DE_S), diameter (DE_D), or both")
		k         = fs.Int("k", 3, "maximum group size for -mode size")
		theta     = fs.Float64("theta", 0.3, "maximum group diameter for -mode diameter")
		c         = fs.Float64("c", 4, "sparse-neighborhood threshold (> 1)")
		estimateF = fs.Float64("estimate-f", 0, "estimate c from this duplicate fraction instead of -c")
		agg       = fs.String("agg", "max", "SN aggregation: max, avg, max2")
		index     = fs.String("index", "exact", "nearest-neighbor index: exact, or qgram for the probabilistic q-gram index (recommended beyond ~10k rows)")
		header    = fs.Bool("header", false, "skip the first CSV row")
		blocked   = fs.Bool("blocked", false, "shard the corpus into blocks and solve them concurrently within the -parallel budget; results are identical to the plain solve")
		parallel  = fs.Int("parallel", 4, "goroutines for exact-index phase-1 lookups; under -blocked, one budget shared by concurrent block solves and each block's lookups")
		baseline  = fs.Bool("baseline", false, "run single-linkage threshold clustering at -theta instead of DE")
		truth     = fs.String("truth", "", "ground-truth file (cmd/datagen format); prints precision/recall instead of groups")
		stats     = fs.Bool("stats", false, "print a run report (phase timings, probe and distance counts) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var records []fuzzydup.Record
	var rows [][]string
	var err error
	switch {
	case *dataDir != "" && *input != "":
		return fmt.Errorf("-data-dir and -input are mutually exclusive")
	case *dataDir != "":
		records, rows, err = readDataDir(*dataDir, *datasetID, stderr)
	default:
		records, rows, err = readCSV(*input, *header)
	}
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("no records")
	}

	opts := fuzzydup.Options{
		Metric:   fuzzydup.Metric(*metric),
		Agg:      fuzzydup.Agg(*agg),
		Index:    fuzzydup.Index(*index),
		Parallel: *parallel,
	}
	if *blocked {
		opts.Blocking = &fuzzydup.BlockingOptions{}
	}
	d, err := fuzzydup.New(records, opts)
	if err != nil {
		return err
	}

	cVal := *c
	if *estimateF > 0 {
		cVal, err = d.EstimateC(*estimateF)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "estimated SN threshold c = %g\n", cVal)
	}

	var groups fuzzydup.Groups
	switch {
	case *baseline:
		groups, err = d.SingleLinkage(*theta)
	case *mode == "size":
		groups, err = d.GroupsBySize(*k, cVal)
	case *mode == "diameter":
		groups, err = d.GroupsByDiameter(*theta, cVal)
	case *mode == "both":
		groups, err = d.GroupsBySizeAndDiameter(*k, *theta, cVal)
	default:
		return fmt.Errorf("unknown mode %q (size, diameter, both)", *mode)
	}
	if err != nil {
		return err
	}

	if *stats {
		fmt.Fprintln(stderr, d.Report().String())
	}

	if *truth != "" {
		truthGroups, err := dataset.LoadTruth(*truth)
		if err != nil {
			return err
		}
		pr := eval.PrecisionRecall(groups, truthGroups)
		fmt.Fprintf(stdout, "%d records: precision %.3f, recall %.3f, F1 %.3f (%d/%d pairs correct)\n",
			len(records), pr.Precision, pr.Recall, pr.F1(), pr.TruePositives, pr.Returned)
		return nil
	}

	dups := groups.Duplicates()
	fmt.Fprintf(stdout, "%d records, %d duplicate groups\n", len(records), len(dups))
	for i, g := range dups {
		fmt.Fprintf(stdout, "group %d:\n", i+1)
		for _, id := range g {
			fmt.Fprintf(stdout, "  row %d: %s\n", id+1, strings.Join(rows[id], ", "))
		}
	}
	return nil
}

// readDataDir recovers a dedupd data directory read-only and returns
// one dataset's records. With an empty id the directory must hold
// exactly one dataset; otherwise the known IDs are listed in the error.
func readDataDir(dir, id string, stderr io.Writer) ([]fuzzydup.Record, [][]string, error) {
	st, err := durable.Load(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("reading data dir: %w", err)
	}
	var ds *durable.DatasetState
	switch {
	case id != "":
		for _, d := range st.Datasets {
			if d.ID == id {
				ds = d
				break
			}
		}
		if ds == nil {
			return nil, nil, fmt.Errorf("dataset %q not in %s (have: %s)", id, dir, datasetIDs(st))
		}
	case len(st.Datasets) == 1:
		ds = st.Datasets[0]
	case len(st.Datasets) == 0:
		return nil, nil, fmt.Errorf("no datasets in %s", dir)
	default:
		return nil, nil, fmt.Errorf("%s holds %d datasets (%s); pick one with -dataset",
			dir, len(st.Datasets), datasetIDs(st))
	}
	fmt.Fprintf(stderr, "loaded %s (%q): %d records\n", ds.ID, ds.Name, len(ds.Records))
	rows := make([][]string, len(ds.Records))
	for i, r := range ds.Records {
		rows[i] = []string(r)
	}
	return ds.Records, rows, nil
}

func datasetIDs(st *durable.State) string {
	ids := make([]string, len(st.Datasets))
	for i, d := range st.Datasets {
		ids[i] = d.ID
	}
	return strings.Join(ids, ", ")
}

// readCSV loads records from a file or stdin.
func readCSV(path string, skipHeader bool) ([]fuzzydup.Record, [][]string, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("reading CSV: %w", err)
	}
	if skipHeader && len(rows) > 0 {
		rows = rows[1:]
	}
	records := make([]fuzzydup.Record, len(rows))
	for i, row := range rows {
		records[i] = fuzzydup.Record(row)
	}
	return records, rows, nil
}
