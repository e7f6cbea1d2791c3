// Command fdbench is the repository's end-to-end benchmark. It drives
// three workloads from one process and measures them from outside the
// program: it times its own calls into each layer's public functions,
// reads counters the program already exposes (RunReport, query-response
// stats, job status timestamps), and diffs the Prometheus histograms of
// an in-process dedupd.
//
//	batch  census corpus: a DE_S and a DE_D parameter sweep through the
//	       fuzzydup facade (pruned index), then the blocked solve of
//	       DE_S(4, c=4)
//	query  dedupd with a WAL (fsync on): closed-loop point queries, half
//	       exact hits and half one-edit near-misses, plus SQL DEDUP()
//	       round trips served from the committed snapshot
//	churn  dedupd with an incremental session: one closed-loop writer
//	       (PUT, NDJSON append, DELETE), each write timed until its
//	       repair job is done, beside one closed-loop reader
//
// Usage (from the repository root; benchmark/run.sh builds and runs it):
//
//	fdbench --workload batch --seed 1 --seconds 25 --trace 0
//	fdbench --selftest
//
// Every run checks the program's outputs and prints human-readable
// "# " lines, then one JSON result object as the last line of standard
// output. With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 the run measures an untraced window, then a traced one, and
// the object carries the per-layer metrics. A failed output check makes
// the run exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydup/internal/eval"
)

// nproc is the concurrency the load is sized for: the job worker pool,
// phase-1 fan-out, and the number of client connections.
const nproc = 2

// workloadSetups is how often each workload repeats its set-up; setup_s
// is the median. A batch set-up only generates corpora, a few
// milliseconds, so it repeats most; a query set-up includes a seeding
// job of about 5 s, so it repeats least.
var workloadSetups = map[string]int{"batch": 21, "query": 3, "churn": 5}

// runDeadline bounds a whole run; a run that reaches it fails instead of
// overrunning the caller's limit.
const runDeadline = 170 * time.Second

// e2eCatalog lists the end-to-end metrics every workload reports, in
// output order. The three latency slots name each workload's user-visible
// operations (see README.md for the per-workload meaning).
var e2eCatalog = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"primary_p50_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"tertiary_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// layerCatalog lists the per-layer metrics a traced run reports.
var layerCatalog = []metricDef{
	{"nnindex.build_ms", "ms"},
	{"nnindex.verified", "count"},
	{"nnindex.pruned", "count"},
	{"nnindex.prune_frac", "frac"},
	{"nnindex.fallbacks", "count"},
	{"nnindex.ns_per_verify", "ns"},
	{"core.phase1_ms", "ms"},
	{"core.phase2_ms", "ms"},
	{"core.lookups", "count"},
	{"core.probes", "count"},
	{"core.cache_hit_frac", "frac"},
	{"blocked.blocks", "count"},
	{"blocked.block_solves", "count"},
	{"blocked.boundary_resolves", "count"},
	{"blocked.largest_block_frac", "frac"},
	{"blocked.solve_ms", "ms"},
	{"blocked.merge_ms", "ms"},
	{"querysnap.lookup_hit_us", "us"},
	{"querysnap.lookup_miss_us", "us"},
	{"querysnap.scanned_per_miss", "count"},
	{"querysnap.verified_per_miss", "count"},
	{"querysnap.prune_frac", "frac"},
	{"querysnap.build_ms", "ms"},
	{"server.http_self_us", "us"},
	{"server.response_bytes", "bytes"},
	{"server.job_queue_ms", "ms"},
	{"server.job_run_ms", "ms"},
	{"sqlwire.dedup_server_ms", "ms"},
	{"sqlwire.client_self_ms", "ms"},
	{"sqlwire.rows_per_dedup", "count"},
	{"incremental.repair_ms", "ms"},
	{"incremental.repairs_per_mutation", "count"},
	{"incremental.dirty_lookups_per_repair", "count"},
	{"incremental.dirty_frac", "frac"},
	{"durable.wal_append_ms", "ms"},
	{"durable.wal_fsync_ms", "ms"},
	{"durable.fsyncs_per_mutation", "count"},
	{"durable.wal_bytes_per_mutation", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_alloc_mb", "MB"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     int    // corpus size; 0 selects the workload default
	scratch  string // per-run scratch directory (data dirs, trace file)
	setups   int    // set-up repetitions
	quiet    bool   // suppress "# " lines (self-test)
	corrupt  bool   // corrupt one output before checking it (self-test)
}

// run is one workload execution's shared state: options, the human
// report, output-check failures, operation counts, and metrics.
type run struct {
	opts options

	mu        sync.Mutex
	failures  []string
	attempted atomic.Int64
	failed    atomic.Int64
	e2e       map[string]float64
	layers    map[string]float64
	absent    map[string]string
	prLast    eval.PR // batch: the last cycle's pair precision/recall
}

func newRun(opts options) *run {
	return &run{
		opts:   opts,
		e2e:    make(map[string]float64),
		layers: make(map[string]float64),
		absent: make(map[string]string),
	}
}

// say prints one human-readable report line.
func (r *run) say(format string, args ...any) {
	if r.opts.quiet {
		return
	}
	fmt.Printf("# "+format+"\n", args...)
}

// check records a failed output check; the run then reports
// correct=false and exits 1.
func (r *run) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	if len(r.failures) < 50 {
		r.failures = append(r.failures, msg)
	}
	r.mu.Unlock()
	return false
}

func (r *run) ok() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failures) == 0
}

// op counts one attempted operation and, if err is non-nil, one failure.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			r.say("operation failed: %v", err)
		}
	}
}

func (r *run) layer(name string, v float64) { r.layers[name] = v }

// absentPrefix marks every layer metric with the given prefix as not
// exercised by the workload.
func (r *run) absentPrefix(reason string, prefixes ...string) {
	for _, d := range layerCatalog {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.absent[d.name] = reason
			}
		}
	}
}

func main() {
	var opts options
	var traceFlag int
	var selftest bool
	flag.StringVar(&opts.workload, "workload", "", "workload: batch, query, churn, or all (each in turn)")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&opts.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs an untraced and a traced window and reports per-layer metrics")
	flag.BoolVar(&selftest, "selftest", false, "run every workload's checks at a tiny size and show corrupted outputs are caught")
	flag.Parse()
	opts.trace = traceFlag == 1

	if opts.workload == "all" {
		os.Exit(runAll(opts, traceFlag))
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "fdbench: run exceeded %v\n", runDeadline)
		os.Exit(1)
	})
	defer watchdog.Stop()

	if selftest {
		if err := runSelfTest(); err != nil {
			fmt.Fprintln(os.Stderr, "fdbench: selftest:", err)
			os.Exit(1)
		}
		return
	}
	code, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// runAll runs every workload in turn, each in its own process so each
// reports its own peak memory, and returns 1 if any of them failed.
func runAll(opts options, trace int) int {
	code := 0
	for _, name := range []string{"batch", "query", "churn"} {
		cmd := exec.Command(os.Args[0], "--workload", name,
			"--seed", strconv.FormatInt(opts.seed, 10),
			"--seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"batch": runBatch,
	"query": runQuery,
	"churn": runChurn,
}

// runWorkload executes one workload and prints its result object. It
// returns the process exit code: 1 when an output check failed.
func runWorkload(opts options) (int, error) {
	drive, ok := workloads[opts.workload]
	if !ok {
		return 1, fmt.Errorf("unknown workload %q (batch, query, churn)", opts.workload)
	}
	if opts.seconds <= 0 {
		return 1, fmt.Errorf("--seconds must be positive")
	}
	opts.setups = workloadSetups[opts.workload]
	cwd, err := os.Getwd()
	if err != nil {
		return 1, err
	}
	opts.scratch = filepath.Join(cwd, ".bench_build", fmt.Sprintf("run-%s-%d-%d", opts.workload, opts.seed, os.Getpid()))
	if err := os.MkdirAll(opts.scratch, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(opts.scratch)

	r := newRun(opts)
	if err := drive(r); err != nil {
		return 1, err
	}
	r.e2e["mem_peak_mb"] = peakRSSMB()
	res := r.result()
	r.report(res)
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// result assembles the JSON result object for the run's mode.
func (r *run) result() result {
	res := result{
		Correct:   r.ok(),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricValue),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		r.check(false, "no operation was attempted")
	}
	if r.opts.trace {
		for _, d := range layerCatalog {
			res.Metrics[d.name] = metricValue{Value: finite(r.layers[d.name]), Unit: d.unit}
		}
	} else {
		for _, d := range e2eCatalog {
			res.Metrics[d.name] = metricValue{Value: finite(r.e2e[d.name]), Unit: d.unit}
		}
	}
	return res
}

// report prints the end-of-run summary lines: failures, the metric
// table for the run's mode, and the reasons absent layers read 0.
func (r *run) report(res result) {
	frac := float64(res.Failed) / float64(res.Attempted)
	r.say("ops_failed_frac %.6f frac (%d failed of %d attempted)", frac, res.Failed, res.Attempted)
	r.mu.Lock()
	for _, f := range r.failures {
		r.say("CHECK FAILED: %s", f)
	}
	r.mu.Unlock()
	if r.opts.trace {
		for _, d := range layerCatalog {
			if why, ok := r.absent[d.name]; ok {
				r.say("layer %-38s absent on %s: %s", d.name, r.opts.workload, why)
				continue
			}
			r.say("layer %-38s %14.4f %s", d.name, r.layers[d.name], d.unit)
		}
		return
	}
	for _, d := range e2eCatalog {
		r.say("e2e   %-38s %14.4f %s", d.name, r.e2e[d.name], d.unit)
	}
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// recordEnv prints the inputs and the machine the run measured.
func (r *run) recordEnv(generator string, size int, flush string) {
	r.say("env workload=%s generator=%s size=%d seed=%d nproc=%d gomaxprocs=%d cpu=%q go=%s flush=%q seconds=%g trace=%v",
		r.opts.workload, generator, size, r.opts.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cpuModel(), runtime.Version(), flush, r.opts.seconds, r.opts.trace)
}

// generatorTimeout bounds corpus generation: a generator that does not
// return fails the run instead of stalling it.
const generatorTimeout = 30 * time.Second

// generate runs a corpus generator under generatorTimeout.
func generate[T any](name string, gen func() T) (T, error) {
	ch := make(chan T, 1)
	go func() { ch <- gen() }()
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(generatorTimeout):
		var zero T
		return zero, fmt.Errorf("corpus generator %s did not return within %v", name, generatorTimeout)
	}
}

// timeSetups runs setup n times and returns the median duration in
// seconds. Each call but the last is torn down by the returned cleanup
// (followed by a garbage collection, so one set-up's garbage does not
// inflate the next one's memory) before the next starts; the last is
// kept for the measured window.
func (r *run) timeSetups(n int, setup func() (cleanup func(), err error)) (keep func(), err error) {
	var secs []float64
	for i := 0; i < n; i++ {
		last := i == n-1
		t0 := time.Now()
		cleanup, err := setup()
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		secs = append(secs, d)
		if last {
			keep = cleanup
		} else if cleanup != nil {
			cleanup()
			runtime.GC()
		}
	}
	r.e2e["setup_s"] = median(secs)
	r.say("setup_s %.4f s (median of %d set-ups: %s)", median(secs), len(secs), fmtList(secs, "%.3f"))
	return keep, nil
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the highest of p99.9, p99, p90 that has at least ten
// samples beyond it, with its label; for fewer than 100 samples it
// returns the maximum.
func tail(xs []float64) (string, float64) {
	n := float64(len(xs))
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if n*(1-c.q) >= 10 {
			return c.label, quantile(xs, c.q)
		}
	}
	max := 0.0
	for _, x := range xs {
		max = math.Max(max, x)
	}
	return "max", max
}

// latency prints one latency series the way the report states timings:
// median, the highest well-populated tail percentile, and the count.
func (r *run) latency(name, unit string, xs []float64) {
	label, t := tail(xs)
	r.say("%-22s p50 %10.3f %s  %s %10.3f %s  (n=%d)", name, median(xs), unit, label, t, unit, len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
