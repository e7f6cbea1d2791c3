package server

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"fuzzydup"
	"fuzzydup/internal/cluster"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/durable"
	"fuzzydup/internal/obs"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: queued → running → one of the three terminal states.
// DELETE moves a queued or running job to cancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state admits no further transitions.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the body of POST /v1/jobs: which dataset to deduplicate and
// the full parameterization of the DE problem. K, Theta, and C are sweep
// lists — every combination applicable to the mode becomes one sweep
// point, and all points of a job share one Deduper, so the phase-1 cache
// makes a sweep barely more expensive than its widest point.
//
// Mode with K/Theta/C, Metric, Agg, P, MinimalCompact and Index decide
// the answer ("pruned", the exact index's former name, answers as
// "exact" does). Blocked, Distributed, Incremental, UseSQL and Parallel
// decide only how fast it comes.
type JobSpec struct {
	// Dataset is the dataset ID to deduplicate. Required.
	Dataset string `json:"dataset"`
	// Mode selects the cut: "size" (DE_S), "diameter" (DE_D), or "both".
	// Default "size".
	Mode string `json:"mode,omitempty"`
	// Metric names a fuzzydup.Metric. Default "ed".
	Metric string `json:"metric,omitempty"`
	// Agg names a fuzzydup.Agg. Default "max".
	Agg string `json:"agg,omitempty"`
	// Index names a fuzzydup.Index: "exact" (the default) or "qgram".
	// "pruned" is accepted as a spelling of "exact".
	Index string `json:"index,omitempty"`
	// K lists the maximum group sizes to sweep (modes size/both).
	// Default [3].
	K []int `json:"k,omitempty"`
	// Theta lists the diameter cuts to sweep (modes diameter/both).
	// Default [0.3].
	Theta []float64 `json:"theta,omitempty"`
	// C lists the SN thresholds to sweep. Default [4].
	C []float64 `json:"c,omitempty"`
	// P is the growth-sphere factor (default 2).
	P float64 `json:"p,omitempty"`
	// MinimalCompact applies the Section 4.4.2 post-processing.
	MinimalCompact bool `json:"minimal_compact,omitempty"`
	// UseSQL runs phase 2 through the embedded relational engine.
	UseSQL bool `json:"use_sql,omitempty"`
	// Parallel fans phase-1 lookups across this many goroutines (exact
	// index only).
	Parallel int `json:"parallel,omitempty"`
	// Blocked routes every sweep point through the sharded blocked
	// pipeline: the corpus is partitioned into candidate blocks, blocks
	// are solved concurrently (at Parallel workers), and a boundary guard
	// re-solves any block whose neighborhoods might cross a block edge —
	// the results are identical to a plain batch job, only faster on
	// large, blockable datasets. Requires the exact index; incompatible
	// with use_sql and incremental.
	Blocked bool `json:"blocked,omitempty"`
	// Incremental runs the job against the dataset's incremental session
	// instead of solving from scratch: the first such job builds the
	// session, later ones (including the repair jobs record mutations
	// submit automatically) apply only the local repairs the data changes
	// require. Incremental jobs take a single (k, θ, c) point, the exact
	// index, and a corpus-independent metric.
	Incremental bool `json:"incremental,omitempty"`
	// Distributed routes every sweep point through the cluster
	// coordinator: blocks are placed on worker nodes by consistent
	// hashing and solved remotely, while the boundary guard and merge
	// loop run locally — the groups are bit-for-bit what a plain batch
	// job computes. Only coordinator nodes (-role coordinator) accept
	// it; requires the exact index and a corpus-independent metric;
	// incompatible with use_sql and incremental.
	Distributed bool `json:"distributed,omitempty"`
}

// maxSweepPoints bounds the K × Theta × C cross product of one job.
const maxSweepPoints = 64

// sweepPoint is one (K, θ, c) combination of a job's sweep. K and Theta
// are the point's cut, zero meaning unset as in core.Cut: a DE_S point
// has no θ and a DE_D point no K.
type sweepPoint struct {
	K     int
	Theta float64
	C     float64
}

func (pt sweepPoint) cut() core.Cut { return core.Cut{MaxSize: pt.K, Diameter: pt.Theta} }

// incremental returns the point as the problem an incremental engine is
// bound to.
func (pt sweepPoint) incremental() fuzzydup.IncrementalSpec {
	return fuzzydup.IncrementalSpec{MaxSize: pt.K, Theta: pt.Theta, C: pt.C}
}

// problem is what a job's answer depends on besides the sweep point: the
// metric, the SN aggregation, the growth factor p, the minimal-compact
// post-processing, and the index. The solver, use_sql and parallel only
// change how fast the answer comes, so they are not part of it.
type problem struct {
	Metric         string
	Agg            string
	P              float64 // core.DefaultP where the spec leaves p at 0
	MinimalCompact bool
	// Index is the spec's index with pruned read as exact: the prefilter
	// answers bit-for-bit like the exact scan.
	Index string
}

// solveKey names the question one solve answers. Two solves with equal
// keys on one dataset revision return the same partition, whichever
// solver ran them, so the key decides when an incremental session, a
// published snapshot or a cached restricted DEDUP() can answer again.
type solveKey struct {
	problem
	sweepPoint
}

// solver is the path that computes a job's answer.
type solver int

const (
	solveMonolithic  solver = iota // one fuzzydup.Deduper over the dataset
	solveBlocked                   // the facade's blocked pipeline
	solveDistributed               // the blocked pipeline, blocks solved on cluster workers
	solveIncremental               // the dataset's live incremental session
)

// plan is a normalized job: its problem, its sweep points in request
// order, and its solver. The rest of the package reads the plan, never
// the spec's mode or solver flags.
type plan struct {
	prob   problem
	points []sweepPoint
	solver solver
}

// normalize applies defaults, validates the spec and returns its plan.
// Validation errors are *specError (HTTP 400).
func (spec *JobSpec) normalize() (plan, error) {
	if spec.Dataset == "" {
		return plan{}, &specError{"missing dataset"}
	}
	if spec.Mode == "" {
		spec.Mode = "size"
	}
	switch spec.Mode {
	case "size", "diameter", "both":
	default:
		return plan{}, &specError{fmt.Sprintf("unknown mode %q (size, diameter, both)", spec.Mode)}
	}
	if spec.Metric == "" {
		spec.Metric = string(fuzzydup.MetricEdit)
	}
	if spec.Agg == "" {
		spec.Agg = string(fuzzydup.AggMax)
	}
	if spec.Index == "" {
		spec.Index = string(fuzzydup.IndexExact)
	}
	if len(spec.K) == 0 {
		spec.K = []int{3}
	}
	if len(spec.Theta) == 0 {
		spec.Theta = []float64{0.3}
	}
	if len(spec.C) == 0 {
		spec.C = []float64{4}
	}
	for _, k := range spec.K {
		if k < 2 {
			return plan{}, &specError{fmt.Sprintf("k = %d must be >= 2", k)}
		}
	}
	for _, th := range spec.Theta {
		if th <= 0 || th > 1 {
			return plan{}, &specError{fmt.Sprintf("theta = %g must be in (0, 1]", th)}
		}
	}
	for _, c := range spec.C {
		if c <= 1 {
			return plan{}, &specError{fmt.Sprintf("c = %g must be > 1", c)}
		}
	}
	if spec.P < 0 {
		return plan{}, &specError{fmt.Sprintf("p = %g must not be negative (0 selects %g)", spec.P, core.DefaultP)}
	}
	pl, err := spec.plan()
	if err != nil {
		return plan{}, err
	}
	if len(pl.points) > maxSweepPoints {
		return plan{}, &specError{fmt.Sprintf("sweep has %d points, max %d", len(pl.points), maxSweepPoints)}
	}
	if err := spec.validate(pl); err != nil {
		return plan{}, &specError{err.Error()}
	}
	return pl, nil
}

// plan derives the plan of a spec whose defaults are applied. Of the
// spec's rules it checks only the solver flags, which it alone reads:
// restore rebuilds the plans of committed jobs here without validating
// their specs again.
func (spec *JobSpec) plan() (plan, error) {
	pl := plan{prob: problem{
		Metric:         spec.Metric,
		Agg:            spec.Agg,
		P:              spec.P,
		MinimalCompact: spec.MinimalCompact,
		Index:          spec.Index,
	}}
	if pl.prob.P == 0 {
		pl.prob.P = core.DefaultP
	}
	if pl.prob.Index == string(fuzzydup.IndexPruned) {
		pl.prob.Index = string(fuzzydup.IndexExact)
	}
	switch {
	case spec.Incremental && (spec.Blocked || spec.Distributed):
		return plan{}, &specError{"incremental jobs cannot be blocked or distributed"}
	case spec.Incremental:
		pl.solver = solveIncremental
	case spec.Distributed:
		pl.solver = solveDistributed
	case spec.Blocked:
		pl.solver = solveBlocked
	}
	ks, thetas := spec.K, spec.Theta
	switch spec.Mode {
	case "size":
		thetas = []float64{0}
	case "diameter":
		ks = []int{0}
	}
	for _, k := range ks {
		for _, th := range thetas {
			for _, c := range spec.C {
				pl.points = append(pl.points, sweepPoint{K: k, Theta: th, C: c})
			}
		}
	}
	return pl, nil
}

// validate checks a plan by probing the facade constructor its solver
// calls with the options its solve uses, so the two validations cannot
// drift. Only the rules the facade cannot know are written here.
func (spec *JobSpec) validate(pl plan) error {
	opts := spec.options(pl.solver)
	switch pl.solver {
	case solveIncremental:
		if len(pl.points) != 1 {
			return fmt.Errorf("incremental jobs take a single (k, theta, c) point, got %d", len(pl.points))
		}
		_, err := fuzzydup.NewIncremental(nil, pl.points[0].incremental(), opts)
		return err
	case solveDistributed:
		// Workers build the metric from the block's records alone. The
		// probe below rejects any index but the exact one, as it does for
		// a blocked solve.
		if distance.CorpusDependent(spec.Metric) {
			return fmt.Errorf("metric %q is corpus-dependent and cannot be solved block-locally", spec.Metric)
		}
	}
	_, err := fuzzydup.New([]fuzzydup.Record{{"probe"}, {"probe b"}}, opts)
	return err
}

// options builds the facade options of a spec's solves under a solver:
// the validation probe, the batch and blocked solves, the incremental
// session and restricted DEDUP() all start from these. A distributed
// solve runs the blocked pipeline, so it validates as a blocked one.
func (spec *JobSpec) options(sv solver) fuzzydup.Options {
	opts := fuzzydup.Options{
		Metric:         fuzzydup.Metric(spec.Metric),
		Agg:            fuzzydup.Agg(spec.Agg),
		Index:          fuzzydup.Index(spec.Index),
		P:              spec.P,
		MinimalCompact: spec.MinimalCompact,
		UseSQL:         spec.UseSQL,
		Parallel:       spec.Parallel,
	}
	if sv == solveBlocked || sv == solveDistributed {
		opts.Blocking = &fuzzydup.BlockingOptions{}
	}
	return opts
}

// specError marks an invalid job spec (HTTP 400).
type specError struct{ msg string }

func (e *specError) Error() string { return e.msg }

// SweepResult is the outcome of one sweep point.
type SweepResult struct {
	K     int     `json:"k,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	C     float64 `json:"c"`
	// Groups is the full partition; Duplicates the groups of size >= 2.
	Groups     [][]int `json:"groups"`
	Duplicates [][]int `json:"duplicates"`
	// Pairs lists every duplicate pair (a < b).
	Pairs [][2]int `json:"pairs"`
	// Representatives[i] is the medoid of Groups[i].
	Representatives []int `json:"representatives"`
}

// JobResult is the body of GET /v1/jobs/{id}/result.
type JobResult struct {
	ID      string        `json:"id"`
	Dataset string        `json:"dataset"`
	Records int           `json:"records"`
	Results []SweepResult `json:"results"`
	// RecordIDs (incremental jobs only) maps every record index appearing
	// in Results to its stable rid, so group members can be addressed by
	// the record mutation endpoints.
	RecordIDs []int64 `json:"record_ids,omitempty"`
}

// SweepProgress reports how far a job's sweep has advanced.
type SweepProgress struct {
	Total int `json:"total"`
	Done  int `json:"done"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Kind is "batch" for full solves, "incremental" for session repair
	// jobs, and "distributed" for cluster-fanned solves.
	Kind    string        `json:"kind"`
	Dataset string        `json:"dataset"`
	Sweep   SweepProgress `json:"sweep"`
	Error   string        `json:"error,omitempty"`
	// RequestID is the X-Request-ID of the submitting request, for
	// correlating the job with the service's logs.
	RequestID string     `json:"request_id,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Report aggregates the run's observability counters (phase timings,
	// index probes, distance computations, cache behaviour) across all
	// sweep points executed so far. Present once the job has run.
	Report *fuzzydup.RunReport `json:"report,omitempty"`
}

// job is the engine's record of one submitted job.
type job struct {
	plan
	id        string
	spec      JobSpec // normalized
	requestID string

	ctx    context.Context
	cancel context.CancelFunc

	// span is the job run's root span ("job.batch" / "job.incremental");
	// the solve's facade spans nest under it via span.Tracer(). Set by
	// run() before the solve starts, nil when tracing is off.
	span *obs.Span

	mu        sync.Mutex
	state     JobState
	done      int // sweep points completed
	err       error
	records   int
	results   []SweepResult
	recordIDs []int64 // incremental jobs: rid per record index
	report    *fuzzydup.RunReport
	created   time.Time
	started   time.Time
	finished  time.Time

	// The exact store snapshot the solve ran against, stashed so a
	// successful job can publish a query snapshot built from the same
	// inputs its results describe. Cleared once the snapshot is published.
	snapRecords []fuzzydup.Record
	snapRIDs    []int64
	snapRev     int64
}

// kind labels the job for status bodies and logs.
func (j *job) kind() string {
	switch j.solver {
	case solveIncremental:
		return "incremental"
	case solveDistributed:
		return "distributed"
	}
	return "batch"
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Kind:      j.kind(),
		Dataset:   j.spec.Dataset,
		Sweep:     SweepProgress{Total: len(j.points), Done: j.done},
		RequestID: j.requestID,
		Created:   j.created,
	}
	if j.report != nil {
		rep := *j.report
		st.Report = &rep
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Engine owns the bounded job queue and the worker pool draining it.
type Engine struct {
	store   *Store
	metrics *Metrics
	logger  *slog.Logger
	db      *durable.DB // nil in memory-only mode

	// tracer roots one span tree per job run (nil-safe: a nil tracer
	// records nothing); slow is the slow-op log (nil-safe likewise).
	tracer *obs.Tracer
	slow   *slowOpLog

	// coord is the cluster coordinator on coordinator nodes (nil
	// otherwise); distributed jobs solve through it.
	coord *cluster.Coordinator

	queue chan *job
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int
	closed bool

	sessMu   sync.Mutex
	sessions map[string]*incSession // dataset ID -> live incremental session

	// snaps holds the published query snapshots (see query.go). Readers
	// hit it lock-free; job workers publish into it after every completed
	// solve.
	snaps snapRegistry

	// testBeforeSolve, when set (tests only), runs before each sweep
	// point with the job's context and ID; it lets tests hold a job
	// mid-flight deterministically.
	testBeforeSolve func(ctx context.Context, jobID string)
}

// errQueueFull rejects a submission when the bounded queue has no room
// (HTTP 503).
var errQueueFull = fmt.Errorf("job queue full")

// errShuttingDown rejects submissions after shutdown began (HTTP 503).
var errShuttingDown = fmt.Errorf("server shutting down")

// errJobNotTerminal rejects a result fetch before the job finished
// (HTTP 409).
type errJobNotTerminal struct{ state JobState }

func (e *errJobNotTerminal) Error() string {
	return fmt.Sprintf("job is %s; result not available", e.state)
}

func errJobNotFound(id string) error { return &notFoundError{what: "job", id: id} }

// newEngine starts a pool of workers draining a queue of the given
// capacity.
func newEngine(store *Store, metrics *Metrics, logger *slog.Logger, workers, queueCap int, db *durable.DB, tracer *obs.Tracer, slow *slowOpLog) *Engine {
	e := &Engine{
		store:   store,
		metrics: metrics,
		logger:  logger,
		db:      db,
		tracer:  tracer,
		slow:    slow,
		queue:   make(chan *job, queueCap),
		jobs:    make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Submit validates the spec and enqueues a job, returning its initial
// status. The queue is bounded: a full queue rejects with errQueueFull
// rather than accepting unbounded work. requestID (may be "") is the
// submitting request's X-Request-ID; it travels on the job's context so
// logs from every phase of the run correlate with the submission.
func (e *Engine) Submit(spec JobSpec, requestID string) (JobStatus, error) {
	pl, err := spec.normalize()
	if err != nil {
		return JobStatus{}, err
	}
	if pl.solver == solveDistributed && e.coord == nil {
		return JobStatus{}, &specError{"distributed jobs require a coordinator node (-role coordinator)"}
	}
	if _, err := e.store.Get(spec.Dataset); err != nil {
		return JobStatus{}, err
	}
	ctx, cancel := context.WithCancel(obs.WithRequestID(context.Background(), requestID))
	j := &job{
		spec:      spec,
		plan:      pl,
		requestID: requestID,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		created:   time.Now(),
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		return JobStatus{}, errShuttingDown
	}
	// The ID is assigned and the status taken before the job hits the
	// queue: a worker may dequeue it and move it past queued the instant
	// the send succeeds.
	e.nextID++
	j.id = fmt.Sprintf("job-%06d", e.nextID)
	st := j.status()
	select {
	case e.queue <- j:
		e.jobs[j.id] = j
	default:
		e.nextID--
		e.mu.Unlock()
		cancel()
		return JobStatus{}, errQueueFull
	}
	e.mu.Unlock()

	e.metrics.jobsQueued.Add(1)
	e.logger.Info("job submitted",
		"job_id", j.id,
		"dataset", spec.Dataset,
		"sweep_points", len(pl.points),
		"request_id", requestID)
	return st, nil
}

// Status returns a job's status.
func (e *Engine) Status(id string) (JobStatus, error) {
	j, err := e.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// Result returns a finished job's results. Non-terminal jobs answer
// errJobNotTerminal; failed or cancelled jobs answer their error.
func (e *Engine) Result(id string) (JobResult, error) {
	j, err := e.get(id)
	if err != nil {
		return JobResult{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.state.terminal():
		return JobResult{}, &errJobNotTerminal{state: j.state}
	case j.state == StateCancelled:
		return JobResult{}, &errJobNotTerminal{state: j.state}
	case j.state == StateFailed:
		return JobResult{}, fmt.Errorf("job failed: %w", j.err)
	}
	return JobResult{ID: j.id, Dataset: j.spec.Dataset, Records: j.records, Results: j.results, RecordIDs: j.recordIDs}, nil
}

// Cancel moves a queued or running job to cancelled (its context is
// cancelled; phase 1 notices between index lookups). Cancelling a job
// already in a terminal state instead removes it from the registry — the
// DELETE verb covers both "stop this" and "forget this".
func (e *Engine) Cancel(id string) (JobStatus, error) {
	j, err := e.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	switch {
	case j.state.terminal():
		wasDone := j.state == StateDone
		j.mu.Unlock()
		e.mu.Lock()
		delete(e.jobs, id)
		e.mu.Unlock()
		if wasDone {
			e.forgetJob(id) // drop the retained result from the WAL too
		}
		return j.status(), nil
	case j.state == StateQueued:
		// The worker that eventually dequeues it will see the state and
		// skip.
		j.state = StateCancelled
		j.finished = time.Now()
		j.mu.Unlock()
		j.cancel()
		e.metrics.jobsCancelled.Add(1)
		return j.status(), nil
	default: // running: the job's run loop performs the transition
		j.mu.Unlock()
		j.cancel()
		return j.status(), nil
	}
}

// Jobs returns all known job statuses ordered by ID.
func (e *Engine) Jobs() []JobStatus {
	e.mu.Lock()
	jobs := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Ready reports whether the engine still accepts submissions — false
// once shutdown has begun. This is the readiness signal behind /readyz:
// a draining instance is alive (liveness stays green) but should be
// rotated out of load balancing.
func (e *Engine) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.closed
}

// Shutdown stops intake and drains the workers: running (and still-
// queued) jobs get until ctx's deadline to finish, then every live job
// is cancelled and the workers are awaited (cancellation is polled
// between phase-1 lookups, so this converges quickly). Returns ctx.Err()
// if the deadline forced cancellation.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		for _, j := range e.jobs {
			j.cancel()
		}
		e.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}

func (e *Engine) get(id string) (*job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, errJobNotFound(id)
	}
	return j, nil
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.run(j)
	}
}

// run executes one job: snapshot the dataset, build the job's own
// Deduper (the type is not concurrency-safe, so it is never shared
// across jobs), and solve every sweep point — widest cut first, so the
// remaining points are phase-1 cache hits.
func (e *Engine) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	e.metrics.jobsRunning.Add(1)
	defer e.metrics.jobsRunning.Add(-1)
	j.span = e.tracer.Start("job." + j.kind())
	j.span.Add("sweep_points", int64(len(j.points)))
	e.logger.Info("job started",
		"job_id", j.id,
		"kind", j.kind(),
		"dataset", j.spec.Dataset,
		"request_id", j.requestID)

	var err error
	switch j.solver {
	case solveIncremental:
		err = e.solveIncremental(j)
	case solveDistributed:
		err = e.solveDistributed(j)
	default:
		err = e.solve(j)
	}

	j.mu.Lock()
	j.finished = time.Now()
	// The duration histogram records every outcome — cancellation
	// mid-run included — so drain behaviour is visible, not censored.
	elapsed := j.finished.Sub(j.started)
	e.metrics.jobDuration.ObserveDuration(elapsed)
	if h := e.metrics.jobDurationKind[j.kind()]; h != nil {
		h.ObserveDuration(elapsed)
	}
	var state JobState
	switch {
	case j.ctx.Err() != nil:
		state = StateCancelled
		j.err = context.Canceled
	case err != nil:
		state = StateFailed
		j.err = err
	default:
		state = StateDone
	}
	finErr := j.err
	j.mu.Unlock()
	// The root span ends here — after the solve's child spans, so the
	// trace buffer finalizes a complete tree — carrying the outcome.
	j.span.SetError(finErr)
	j.span.End()

	if state == StateDone {
		// Commit the result to the WAL before the state flips to done: no
		// result is ever observable that a restart would lose.
		e.commitJob(j)
		// Publish the query snapshot before the state flips too, so any
		// client that observes the job as done can immediately query the
		// state it computed.
		e.publishSnapshot(j)
	}

	// The finish log line and the slow-op note land before the state
	// flips too: a client that observes the job as done finds both.
	attrs := []any{
		"job_id", j.id,
		"state", state,
		"duration_us", elapsed.Microseconds(),
		"request_id", j.requestID,
	}
	if finErr != nil {
		attrs = append(attrs, "error", finErr.Error())
	}
	e.logger.Info("job finished", attrs...)

	e.slow.note("job", elapsed, func() SlowOp {
		op := SlowOp{
			Dataset:   j.spec.Dataset,
			Job:       j.id,
			RequestID: j.requestID,
		}
		if finErr != nil {
			op.Error = finErr.Error()
		}
		j.mu.Lock()
		if j.report != nil {
			op.Counters = map[string]int64{
				"sweep_points":   int64(len(j.points)),
				"records":        int64(j.records),
				"lookups":        j.report.Lookups,
				"index_probes":   j.report.IndexProbes,
				"distance_calls": j.report.DistanceCalls,
				"cache_hits":     int64(j.report.CacheHits),
				"cache_computes": int64(j.report.CacheComputes),
			}
		}
		j.mu.Unlock()
		return op
	})

	j.mu.Lock()
	j.state = state
	switch state {
	case StateCancelled:
		e.metrics.jobsCancelled.Add(1)
	case StateFailed:
		e.metrics.jobsFailed.Add(1)
	default:
		e.metrics.jobsDone.Add(1)
	}
	j.mu.Unlock()
	j.cancel() // release the context's resources
}

func (e *Engine) solve(j *job) error {
	records, rids, rev, err := e.store.SnapshotFull(j.spec.Dataset)
	if err != nil {
		return err
	}
	opts := j.spec.options(j.solver)
	// The facade's dedup.solve spans nest under the job's root span, so
	// each run retains as one coherent trace.
	opts.Tracer = j.span.Tracer()
	if opts.Blocking != nil {
		opts.Blocking.OnBlockSolved = e.metrics.observeBlock
	}
	d, err := fuzzydup.New(records, opts)
	if err != nil {
		return err
	}
	// The deferred block runs on every exit — success, failure, or
	// cancellation — so partial runs still publish their cache stats,
	// distance-call total, and RunReport.
	defer func() {
		computes, hits := d.CacheStats()
		e.metrics.cacheComputes.Add(int64(computes))
		e.metrics.cacheHits.Add(int64(hits))
		rep := d.Report()
		e.metrics.distanceCalls.Add(rep.DistanceCalls)
		j.mu.Lock()
		j.report = &rep
		j.mu.Unlock()
	}()

	results := make([]SweepResult, len(j.points))
	for _, idx := range sweepOrder(j.points) {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if e.testBeforeSolve != nil {
			e.testBeforeSolve(j.ctx, j.id)
		}
		pt := j.points[idx]
		groups, err := d.GroupsBySizeAndDiameterCtx(j.ctx, pt.K, pt.Theta, pt.C)
		if err != nil {
			return err
		}
		e.metrics.observePoint(d.LastReport())
		reps := make([]int, len(groups))
		for i, g := range groups {
			reps[i] = d.Representative(g)
		}
		results[idx] = j.solved(pt, groups, reps)
	}
	j.stash(records, rids, rev, results)
	return nil
}

// observePoint records one solved sweep point's phase timings and work
// counters. The blocked pipeline's counters are zero off that path and
// the exact index's off it (under qgram), as RunReport documents.
func (m *Metrics) observePoint(point fuzzydup.RunReport) {
	m.phase1Duration.ObserveDuration(point.Phase1)
	m.phase2Duration.ObserveDuration(point.Phase2)
	m.blocksSolved.Add(int64(point.BlocksSolved))
	m.boundaryResolves.Add(int64(point.BoundaryResolves))
	m.phase1Pruned.Add(point.Phase1Pruned)
	m.phase1Candidates.Add(point.Phase1Candidates)
	m.phase1Fallbacks.Add(point.Phase1Fallbacks)
}

// observeBlock is the blocked pipeline's OnBlockSolved hook.
func (m *Metrics) observeBlock(size int, dur time.Duration) {
	m.blockSolveDuration.ObserveDuration(dur)
}

// solved counts one finished sweep point toward the job's progress and
// returns its result.
func (j *job) solved(pt sweepPoint, groups fuzzydup.Groups, reps []int) SweepResult {
	j.mu.Lock()
	j.done++
	j.mu.Unlock()
	return SweepResult{
		K:               pt.K,
		Theta:           pt.Theta,
		C:               pt.C,
		Groups:          groups,
		Duplicates:      nonNil(groups.Duplicates()),
		Pairs:           nonNilPairs(groups.Pairs()),
		Representatives: reps,
	}
}

// stash keeps a finished solve's results on the job, with the exact
// store snapshot they describe so run can publish a query snapshot built
// from the same inputs. Incremental results also carry every record's
// rid, so clients can address group members for further mutation.
func (j *job) stash(records []fuzzydup.Record, rids []int64, rev int64, results []SweepResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = len(records)
	j.results = results
	if j.solver == solveIncremental {
		j.recordIDs = rids
	}
	j.snapRecords = records
	j.snapRIDs = rids
	j.snapRev = rev
}

// sweepOrder returns the execution order of a job's sweep points: widest
// cut first (largest K, then largest θ), so every later point is served
// from the phase-1 cache. Results are still reported in request order.
func sweepOrder(points []sweepPoint) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		if pa.K != pb.K {
			return pa.K > pb.K
		}
		return pa.Theta > pb.Theta
	})
	return order
}

// nonNil keeps empty result arrays rendering as [] rather than null.
func nonNil(v [][]int) [][]int {
	if v == nil {
		return [][]int{}
	}
	return v
}

func nonNilPairs(v [][2]int) [][2]int {
	if v == nil {
		return [][2]int{}
	}
	return v
}
