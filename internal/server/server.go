// Package server implements dedupd, the JSON-over-HTTP fuzzy-dedup
// service: an in-memory dataset registry with streaming NDJSON ingest, a
// bounded job queue drained by a worker pool that runs CS/SN dedup jobs
// (with K/θ/c parameter sweeps sharing one phase-1 cache per job),
// per-dataset incremental sessions that repair groups under record
// mutations instead of resolving from scratch, and an operational
// surface of health, expvar-style metrics, request timeouts, size
// limits, structured errors, and graceful draining shutdown.
//
// Endpoints:
//
//	GET    /healthz                         liveness probe
//	GET    /readyz                          readiness probe (503 draining)
//	GET    /metrics                         operational counters (JSON, or the
//	                                        Prometheus text exposition with
//	                                        ?format=prometheus)
//	GET    /debug/traces                    retained span trees (tail-sampled)
//	GET    /debug/slowops                   slow-op ring, newest first
//	GET    /debug/pprof/...                 runtime profiles (Config.EnablePprof)
//	POST   /v1/datasets                     register a dataset (JSON array)
//	GET    /v1/datasets                     list datasets
//	GET    /v1/datasets/{id}                dataset info
//	DELETE /v1/datasets/{id}                remove a dataset
//	POST   /v1/datasets/{id}/records        append records (streaming NDJSON)
//	GET    /v1/datasets/{id}/records        list records with rids
//	PUT    /v1/datasets/{id}/records/{rid}  replace one record (JSON array)
//	DELETE /v1/datasets/{id}/records/{rid}  delete one record
//	POST   /v1/datasets/{id}/query          point query: find the record's
//	                                        duplicate group (or its nearest
//	                                        candidates) in the last solved
//	                                        state, served lock-free from an
//	                                        immutable snapshot (409 until a
//	                                        job completes)
//	POST   /v1/jobs                         submit a dedup job (async, 202);
//	                                        "incremental": true opens or
//	                                        repairs the dataset's session
//	GET    /v1/jobs                         list jobs
//	GET    /v1/jobs/{id}                    job status + sweep progress
//	GET    /v1/jobs/{id}/result             groups, pairs, representatives
//	DELETE /v1/jobs/{id}                    cancel (or forget a finished) job
//
// Record mutations on a dataset with a live incremental session
// automatically submit a repair job (reported as repair_job in the
// mutation response), so published groups follow the data at
// per-change cost.
package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fuzzydup/internal/cluster"
	"fuzzydup/internal/durable"
	"fuzzydup/internal/obs"
	"fuzzydup/internal/sqlwire"
)

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// Workers sizes the job worker pool (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the job queue; submissions beyond it get 503
	// (default 64).
	QueueCap int
	// MaxBodyBytes caps any request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxRecords caps each dataset's record count (default 1,000,000;
	// < 0 disables).
	MaxRecords int
	// RequestTimeout bounds each HTTP request (default 30s; < 0
	// disables). Jobs run asynchronously, so no handler legitimately
	// takes long.
	RequestTimeout time.Duration
	// Logger receives structured operational logs (default
	// slog.Default()). Job lifecycle events log at Info with the
	// submitting request's request_id; per-request access lines log at
	// Debug.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and hold CPU, so
	// they are opt-in (and compiled out entirely under -tags nopprof).
	EnablePprof bool
	// DataDir enables the durability layer: datasets, record IDs, and
	// finished job results are written through a WAL in this directory
	// and recovered on the next start. Empty (the default) keeps the
	// service fully in-memory, exactly as before.
	DataDir string
	// NoFsync skips the per-group-commit fsync. Mutations then survive a
	// process crash (the OS holds the writes) but not a host crash.
	NoFsync bool
	// SnapshotEvery is the number of logged mutations between automatic
	// snapshots (default 4096; < 0 disables automatic snapshots).
	SnapshotEvery int
	// SlowQuery, SlowJob, and SlowRepair are the slow-op thresholds:
	// a point query, job run, or incremental repair operation exceeding
	// its threshold is recorded in the slow-op ring (GET /debug/slowops)
	// and emitted as one wide structured log event. Defaults 250ms, 60s,
	// and 1s; < 0 disables that kind.
	SlowQuery  time.Duration
	SlowJob    time.Duration
	SlowRepair time.Duration
	// SlowOpCapacity sizes the slow-op ring (default 256).
	SlowOpCapacity int
	// TraceCapacity sizes the trace retention rings (default 256) and
	// TraceSlowest the per-root-path slowest set (default 8); see
	// GET /debug/traces.
	TraceCapacity int
	TraceSlowest  int

	// SQLAddr, when non-empty, serves the MySQL wire-protocol SQL
	// surface on this address: virtual tables over live server state,
	// the DEDUP() table function, and predicate pushdown into blocking
	// (see internal/sqlwire and sqlcatalog.go). Empty disables it.
	SQLAddr string
	// SQLMaxRows bounds every materialized row set of a SQL query —
	// sources, join intermediates, and results (default 1,000,000;
	// exceeding it fails the query with ERR 4001 max_rows_exceeded).
	SQLMaxRows int
	// SQLUser and SQLPassword gate SQL connections
	// (mysql_native_password). Empty SQLPassword accepts any
	// credentials; empty SQLUser accepts any username.
	SQLUser     string
	SQLPassword string

	// Role selects the node's cluster role: "standalone" (or "", the
	// default) runs exactly as before; "coordinator" accepts
	// "distributed": true jobs and fans block solves out to workers;
	// "worker" serves POST /v1/internal/blocks/solve and announces itself
	// to its coordinators.
	Role string
	// Peers are cluster base URLs: for a coordinator, static worker
	// seeds (workers may also register dynamically); for a worker, the
	// coordinators to heartbeat.
	Peers []string
	// Advertise is the base URL coordinators reach this worker at
	// (required for role "worker" when Peers is non-empty).
	Advertise string
	// HeartbeatInterval is the worker's announce cadence (default 1s);
	// HeartbeatTTL is the coordinator's liveness window (default 3s).
	HeartbeatInterval time.Duration
	HeartbeatTTL      time.Duration
	// SolveTimeout bounds one remote block solve attempt (default 30s);
	// SolveRetries is the per-worker attempt budget before a block is
	// reassigned (default 3).
	SolveTimeout time.Duration
	SolveRetries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxRecords == 0 {
		c.MaxRecords = 1_000_000
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 4096
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	}
	if c.SlowJob == 0 {
		c.SlowJob = 60 * time.Second
	}
	if c.SlowRepair == 0 {
		c.SlowRepair = time.Second
	}
	if c.SlowOpCapacity <= 0 {
		c.SlowOpCapacity = 256
	}
	if c.TraceCapacity <= 0 {
		c.TraceCapacity = 256
	}
	if c.TraceSlowest <= 0 {
		c.TraceSlowest = 8
	}
	if c.Role == "" {
		c.Role = "standalone"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 3 * time.Second
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	if c.SolveRetries <= 0 {
		c.SolveRetries = 3
	}
	if c.SQLMaxRows <= 0 {
		c.SQLMaxRows = 1_000_000
	}
	return c
}

// threshold maps a configured slow-op threshold to the log's convention
// (0 disables): negatives disable, zero never reaches here (defaulted).
func threshold(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// Server wires the dataset store, job engine, and metrics behind an
// http.Handler.
type Server struct {
	cfg     Config
	store   *Store
	engine  *Engine
	metrics *Metrics
	traces  *obs.TraceBuffer
	tracer  *obs.Tracer
	slowOps *slowOpLog
	db      *durable.DB // nil without Config.DataDir
	handler http.Handler

	// Cluster role state: at most one of coord/worker is non-nil
	// (standalone has neither). The registrar is the worker's heartbeat
	// loop; regStop cancels it and regDone closes when it has exited.
	coord     *cluster.Coordinator
	worker    *cluster.Worker
	registrar *cluster.Registrar
	regStop   context.CancelFunc
	regDone   chan struct{}
	drainOnce sync.Once

	// SQL surface: the shared catalog adapter and, once StartSQL runs,
	// the wire server (guarded by sqlMu; Shutdown drains it).
	sqlCatalog *sqlCatalog
	sqlMu      sync.Mutex
	sqlSrv     *sqlwire.Server
}

// New builds a Server and starts its worker pool. With Config.DataDir
// set it first recovers the durable state (replaying snapshot-then-log)
// and opens the WAL; recovery failure — mid-log corruption, an
// unreadable directory — fails construction rather than serving partial
// data. Callers must Shutdown to stop the workers (and flush the WAL).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		traces:  obs.NewTraceBuffer(cfg.TraceCapacity, cfg.TraceSlowest),
	}
	s.tracer = &obs.Tracer{Sink: s.traces}
	s.slowOps = newSlowOpLog(cfg.SlowOpCapacity, cfg.Logger, s.metrics, map[string]time.Duration{
		"query":  threshold(cfg.SlowQuery),
		"job":    threshold(cfg.SlowJob),
		"repair": threshold(cfg.SlowRepair),
		// SQL statements share the point-query threshold: both are
		// interactive read paths with the same latency expectations.
		"sql": threshold(cfg.SlowQuery),
	})
	var state *durable.State
	if cfg.DataDir != "" {
		start := time.Now()
		db, st, err := durable.Open(durable.Options{
			Dir:           cfg.DataDir,
			Fsync:         !cfg.NoFsync,
			SnapshotEvery: cfg.SnapshotEvery,
			Logger:        cfg.Logger,
			Hooks:         s.metrics.durableHooks(),
		})
		if err != nil {
			return nil, fmt.Errorf("recovering data dir %s: %w", cfg.DataDir, err)
		}
		s.db = db
		state = st
		elapsed := time.Since(start)
		s.metrics.recoveryDuration.Set(elapsed.Milliseconds())
		cfg.Logger.Info("durable state recovered",
			"data_dir", cfg.DataDir,
			"datasets", len(state.Datasets),
			"jobs", len(state.Jobs),
			"seq", state.Seq,
			"duration_ms", elapsed.Milliseconds())
	}
	s.store = newStore(cfg.MaxRecords, s.db)
	s.engine = newEngine(s.store, s.metrics, cfg.Logger, cfg.Workers, cfg.QueueCap, s.db, s.tracer, s.slowOps)
	if state != nil {
		s.store.load(state)
		s.engine.restore(state)
		s.metrics.datasets.Set(int64(s.store.Len()))
	}
	// The staleness gauge reads the snapshot registry at scrape time.
	s.metrics.snapshotAge = func() float64 {
		return s.engine.snaps.maxAge(time.Now())
	}
	s.sqlCatalog = newSQLCatalog(s.store, s.engine)

	switch cfg.Role {
	case "standalone":
	case "coordinator":
		s.coord = cluster.NewCoordinator(cluster.CoordinatorConfig{
			SolveTimeout: cfg.SolveTimeout,
			Retries:      cfg.SolveRetries,
			HeartbeatTTL: cfg.HeartbeatTTL,
			Logger:       cfg.Logger,
		})
		for _, p := range cfg.Peers {
			s.coord.AddPeer(p)
		}
		s.engine.coord = s.coord
		s.metrics.declare("cluster", expvar.Func(s.coordinatorJSON), s.coordinatorFamilies)
	case "worker":
		s.worker = cluster.NewWorker(cfg.Logger, 0)
		s.metrics.declare("cluster", expvar.Func(s.workerJSON), s.workerFamilies)
		if len(cfg.Peers) > 0 {
			if cfg.Advertise == "" {
				return nil, fmt.Errorf("role worker with peers requires an advertise URL")
			}
			s.registrar = &cluster.Registrar{
				Coordinators: cfg.Peers,
				Self:         cfg.Advertise,
				Every:        cfg.HeartbeatInterval,
				Logger:       cfg.Logger,
			}
			regCtx, cancel := context.WithCancel(context.Background())
			s.regStop = cancel
			s.regDone = make(chan struct{})
			go func() {
				defer close(s.regDone)
				s.registrar.Run(regCtx)
			}()
		}
	default:
		return nil, fmt.Errorf("unknown role %q (standalone, coordinator, worker)", cfg.Role)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metrics.handler())
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	mux.HandleFunc("GET /debug/slowops", s.handleDebugSlowOps)
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetCreate)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleDatasetGet)
	mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleDatasetDelete)
	mux.HandleFunc("POST /v1/datasets/{id}/records", s.handleDatasetAppend)
	mux.HandleFunc("GET /v1/datasets/{id}/records", s.handleRecordList)
	mux.HandleFunc("PUT /v1/datasets/{id}/records/{rid}", s.handleRecordReplace)
	mux.HandleFunc("DELETE /v1/datasets/{id}/records/{rid}", s.handleRecordDelete)
	mux.HandleFunc("POST /v1/datasets/{id}/query", s.handleDatasetQuery)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	if s.coord != nil {
		mux.HandleFunc("POST "+cluster.RegisterPath, s.coord.HandleRegister)
		mux.HandleFunc("POST "+cluster.HeartbeatPath, s.coord.HandleHeartbeat)
		mux.HandleFunc("POST "+cluster.DeregisterPath, s.coord.HandleDeregister)
		mux.HandleFunc("GET "+cluster.WorkersPath, s.coord.HandleWorkers)
	}
	if s.worker != nil {
		mux.HandleFunc("POST "+cluster.SolvePath, s.worker.HandleSolve)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint")
	})

	var h http.Handler = mux
	h = withBodyLimit(cfg.MaxBodyBytes, h)
	h = withRecover(cfg.Logger, h)
	h = withMetrics(s.metrics, h)
	h = withTimeout(cfg.RequestTimeout, h)
	// pprof mounts outside the timeout and body-limit middleware: a
	// 30-second CPU profile is a legitimate long request, and the
	// profiler owns its own limits. It stays inside request-ID and
	// logging so profile fetches are still correlated and visible.
	if cfg.EnablePprof {
		if pp := pprofHandler(); pp != nil {
			outer := http.NewServeMux()
			outer.Handle("/debug/pprof/", pp)
			outer.Handle("/", h)
			h = outer
		}
	}
	h = withLogging(cfg.Logger, h)
	h = withRequestID(h)
	s.handler = h
	return s, nil
}

// Handler returns the service's root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics returns the server's counters (for Publish and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown drains the job engine — running jobs get until ctx's
// deadline to finish, then they are cancelled and awaited — and then
// closes the WAL, flushing and fsyncing the pending group-commit batch
// so no acknowledged mutation is lost across a clean restart. It
// returns ctx.Err() if the deadline forced cancellation. The HTTP
// listener (if any) is the caller's to close — see ListenAndServe.
//
// A worker node first leaves the cluster: it stops heartbeating,
// deregisters from its coordinators so future blocks place elsewhere,
// and finishes the block solves it already accepted (new ones get 503,
// which the coordinator treats as a reassignment signal).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainCluster()
	if s.worker != nil {
		s.worker.Wait()
	}
	err := s.shutdownSQL(ctx)
	if eerr := s.engine.Shutdown(ctx); eerr != nil && err == nil {
		err = eerr
	}
	if s.db != nil {
		if cerr := s.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// drainCluster runs the worker's exit sequence exactly once: refuse new
// block solves (the coordinator reassigns them), stop the heartbeat
// loop, and send a best-effort deregistration so coordinators drop this
// node immediately instead of waiting out the liveness TTL. It runs
// before the HTTP listener shuts down — deregistering while still
// serving lets in-flight solves complete and be returned. A no-op for
// non-worker roles.
func (s *Server) drainCluster() {
	s.drainOnce.Do(func() {
		if s.worker == nil {
			return
		}
		s.worker.BeginDrain()
		if s.registrar != nil {
			s.regStop()
			<-s.regDone
			s.registrar.Deregister()
		}
	})
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts the
// listener down and drains the job engine, giving both together at most
// drain. This is the daemon's main loop.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.cfg.SQLAddr != "" {
		lis, err := net.Listen("tcp", s.cfg.SQLAddr)
		if err != nil {
			return fmt.Errorf("sql listener: %w", err)
		}
		s.StartSQL(lis)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		// Listener died on its own; still stop the workers and the WAL.
		s.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}

	s.cfg.Logger.Info("shutting down", "drain", drain.String())
	// Leave the cluster before the listener stops: deregistration routes
	// future blocks elsewhere while srv.Shutdown below waits for the
	// in-flight remote block solves this node already accepted.
	s.drainCluster()
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	httpErr := srv.Shutdown(drainCtx)
	jobErr := s.Shutdown(drainCtx)
	if jobErr != nil && errors.Is(jobErr, context.DeadlineExceeded) {
		s.cfg.Logger.Warn("drain deadline hit: running jobs were cancelled")
	}
	return httpErr
}
