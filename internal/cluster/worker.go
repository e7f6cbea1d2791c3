package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydup/internal/blocked"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/obs"
)

// defaultCacheCap bounds the idempotency cache: solved blocks are only
// re-requested within one solve's retry window, so a shallow FIFO
// suffices — the cache is about correctness under duplication, not
// performance.
const defaultCacheCap = 256

// Worker executes remote block solves. It is the passive half of the
// cluster: a plain HTTP handler the serving layer mounts at SolvePath,
// plus drain bookkeeping so a terminating node finishes the solves it
// already accepted while rejecting new ones.
type Worker struct {
	logger   *slog.Logger
	cacheCap int

	mu    sync.Mutex
	cache map[string]*SolveResponse
	order []string // FIFO eviction over cache keys

	draining atomic.Bool
	inflight sync.WaitGroup

	// Counters for the serving layer's metric families.
	Solves    atomic.Int64 // block solves executed (cache misses)
	CacheHits atomic.Int64 // requests replayed from the idempotency cache
	Rejected  atomic.Int64 // requests refused while draining
	// SolveDuration observes worker-side solve wall clocks (ms buckets).
	SolveDuration *obs.Histogram
	// CountDistances, when non-nil, receives each executed solve's
	// distance work: bounded-kernel verifications plus metric calls
	// (cache replays add nothing). The serving layer adds it to the
	// node's distance_calls counter.
	CountDistances func(n int64)
}

// NewWorker builds a Worker. cacheCap <= 0 selects defaultCacheCap;
// logger may be nil.
func NewWorker(logger *slog.Logger, cacheCap int) *Worker {
	if logger == nil {
		logger = slog.Default()
	}
	if cacheCap <= 0 {
		cacheCap = defaultCacheCap
	}
	return &Worker{
		logger:        logger,
		cacheCap:      cacheCap,
		cache:         make(map[string]*SolveResponse),
		SolveDuration: obs.NewHistogram(),
	}
}

// BeginDrain flips the worker into draining: subsequent solve requests
// get 503 (the coordinator reassigns their blocks), while solves already
// in flight run to completion. Idempotent.
func (w *Worker) BeginDrain() { w.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Wait blocks until every in-flight solve has finished. Call after
// BeginDrain; the HTTP server's own graceful shutdown usually covers
// this, Wait makes it explicit for embedders without one.
func (w *Worker) Wait() { w.inflight.Wait() }

// HandleSolve is the POST /v1/internal/blocks/solve handler.
func (w *Worker) HandleSolve(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		w.Rejected.Add(1)
		writeClusterError(rw, http.StatusServiceUnavailable, "draining", "worker is draining; reassign the block")
		return
	}
	w.inflight.Add(1)
	defer w.inflight.Done()

	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeClusterError(rw, http.StatusBadRequest, "bad_spec", fmt.Sprintf("invalid solve request: %v", err))
		return
	}
	if req.BlockKey == "" || len(req.Records) == 0 {
		writeClusterError(rw, http.StatusBadRequest, "bad_spec", "solve request needs a block_key and records")
		return
	}
	prob, err := req.Params.Problem()
	if err != nil {
		writeClusterError(rw, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}

	key := req.BlockKey + "|" + req.Params.fingerprint()
	w.mu.Lock()
	if resp, ok := w.cache[key]; ok {
		w.mu.Unlock()
		w.CacheHits.Add(1)
		replay := *resp
		replay.Cached = true
		writeClusterJSON(rw, http.StatusOK, &replay)
		return
	}
	w.mu.Unlock()

	base, err := distance.ByName(req.Params.Metric, req.Records)
	if err != nil {
		writeClusterError(rw, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	metric := distance.NewCounting(base)
	var stats core.Phase1Stats
	res, err := blocked.SolveBlock(req.Records, metric, prob, core.Phase1Options{
		Ctx:   r.Context(),
		Stats: &stats,
	})
	if err != nil {
		// A cancelled request context means the coordinator gave up; any
		// status works, it is no longer listening.
		writeClusterError(rw, http.StatusInternalServerError, "solve_failed", err.Error())
		return
	}
	w.Solves.Add(1)
	w.SolveDuration.ObserveDuration(res.Dur)
	resp := &SolveResponse{
		Rel:         res.Rel,
		Groups:      res.Groups,
		Stats:       res.Stats,
		DurNs:       int64(res.Dur),
		Lookups:     stats.Lookups.Load(),
		Probes:      stats.Probes.Load(),
		Pruned:      stats.Pruned.Load(),
		Candidates:  stats.Candidates.Load(),
		Fallbacks:   stats.Fallbacks.Load(),
		MetricCalls: metric.Calls(),
	}
	if w.CountDistances != nil {
		w.CountDistances(resp.MetricCalls + resp.Candidates)
	}
	if resp.Groups == nil {
		resp.Groups = [][]int{}
	}

	w.mu.Lock()
	if _, ok := w.cache[key]; !ok {
		w.cache[key] = resp
		w.order = append(w.order, key)
		for len(w.order) > w.cacheCap {
			delete(w.cache, w.order[0])
			w.order = w.order[1:]
		}
	}
	w.mu.Unlock()

	w.logger.Debug("block solved",
		"dataset", req.Dataset,
		"revision", req.Revision,
		"block_key", req.BlockKey,
		"records", len(req.Records),
		"duration_us", res.Dur.Microseconds())
	writeClusterJSON(rw, http.StatusOK, resp)
}

func writeClusterJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json; charset=utf-8")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func writeClusterError(rw http.ResponseWriter, status int, code, message string) {
	writeClusterJSON(rw, status, errorBody{Error: apiError{Status: status, Code: code, Message: message}})
}

// Registrar announces a worker to its coordinators and keeps it alive
// with heartbeats. It is worker-initiated so the coordinator needs no
// outbound probing: membership is exactly the set of nodes that can
// reach it.
type Registrar struct {
	// Client issues the registration POSTs (default: 5s-timeout client).
	Client *http.Client
	// Coordinators are the coordinator base URLs to announce to.
	Coordinators []string
	// Self is the base URL the coordinator should reach this worker at.
	Self string
	// Every is the heartbeat interval (default 1s). The coordinator's
	// liveness TTL should cover a few missed beats.
	Every  time.Duration
	Logger *slog.Logger
}

func (g *Registrar) client() *http.Client {
	if g.Client != nil {
		return g.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (g *Registrar) every() time.Duration {
	if g.Every > 0 {
		return g.Every
	}
	return time.Second
}

func (g *Registrar) logger() *slog.Logger {
	if g.Logger != nil {
		return g.Logger
	}
	return slog.Default()
}

// Run registers once and then heartbeats until ctx is cancelled. Send
// failures are logged and retried at the next tick — a coordinator that
// restarts re-learns the worker from its next beat.
func (g *Registrar) Run(ctx context.Context) {
	g.post(ctx, RegisterPath)
	t := time.NewTicker(g.every())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.post(ctx, HeartbeatPath)
		}
	}
}

// Deregister tells every coordinator this worker is leaving, so blocks
// route elsewhere immediately instead of after a liveness timeout. Call
// before the HTTP listener stops accepting (see the drain sequence in
// internal/server).
func (g *Registrar) Deregister() {
	g.post(context.Background(), DeregisterPath)
}

func (g *Registrar) post(ctx context.Context, path string) {
	body, _ := json.Marshal(map[string]string{"worker": g.Self})
	for _, coord := range g.Coordinators {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coord+path, bytes.NewReader(body))
		if err != nil {
			g.logger().Warn("cluster announce failed", "coordinator", coord, "path", path, "error", err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.client().Do(req)
		if err != nil {
			if ctx.Err() == nil {
				g.logger().Warn("cluster announce failed", "coordinator", coord, "path", path, "error", err)
			}
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			g.logger().Warn("cluster announce rejected", "coordinator", coord, "path", path, "status", resp.Status)
		}
	}
}
