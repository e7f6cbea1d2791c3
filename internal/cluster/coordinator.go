package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydup/internal/blocked"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/obs"
)

// CoordinatorConfig tunes the active half of the cluster. The zero value
// selects sensible defaults throughout.
type CoordinatorConfig struct {
	// Client issues block-solve and scrape requests (default: a plain
	// http.Client; per-attempt deadlines come from SolveTimeout). Tests
	// inject failpoint transports here.
	Client *http.Client
	// SolveTimeout bounds one remote solve attempt (default 30s).
	SolveTimeout time.Duration
	// Retries is the attempt budget per worker before the block is
	// reassigned (default 3, i.e. two retries after the first attempt).
	Retries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries: base·2^(try−1), capped at max, scaled by a jitter factor
	// uniform in [0.5, 1.5). Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatTTL is the liveness window: a worker whose last heartbeat
	// is older is skipped for placement (default 3s, three missed beats
	// at the default interval).
	HeartbeatTTL time.Duration
	// VNodes is the consistent-hash points per worker (default 64).
	VNodes int
	// ScrapeTimeout bounds one worker metrics scrape during a cluster
	// roll-up (default 2s).
	ScrapeTimeout time.Duration
	Logger        *slog.Logger

	// now and jitter are injectable for tests.
	now    func() time.Time
	jitter func() float64
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 30 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 3 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = defaultVNodes
	}
	if c.ScrapeTimeout <= 0 {
		c.ScrapeTimeout = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.jitter == nil {
		c.jitter = rand.Float64
	}
	return c
}

// member is one known worker.
type member struct {
	id     string
	static bool // seeded from -peers rather than registered by a beat
	// lastBeat is the most recent heartbeat (zero if the worker has never
	// beaten — possible only for static seeds, which are trusted alive
	// until they fail or start beating).
	lastBeat time.Time
	// dead marks a worker whose solve attempts exhausted their retry
	// budget; cleared by the next heartbeat.
	dead bool
}

func (m *member) alive(now time.Time, ttl time.Duration) bool {
	if m.dead {
		return false
	}
	if m.lastBeat.IsZero() {
		return m.static
	}
	return now.Sub(m.lastBeat) <= ttl
}

// workerCounters is the coordinator's per-worker instrumentation; it
// outlives deregistration so counters never reset mid-scrape-interval.
type workerCounters struct {
	blocksSolved atomic.Int64
	solveDur     *obs.Histogram // coordinator-observed round trip, ms
}

// Coordinator owns cluster membership and drives distributed solves: it
// runs the blocked pipeline locally with the per-block solve redirected
// to workers (placement by consistent hashing, bounded retries with
// backoff and jitter, reassignment on worker death, local fallback when
// no worker is reachable). See the package comment for why this is exact.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	members map[string]*member
	version int // bumped on membership set changes; invalidates the ring
	ring    *ring
	ringVer int
	stats   map[string]*workerCounters

	// BlocksReassigned counts failover hops: a block moving off a worker
	// that exhausted its retry budget (including moves onto the
	// coordinator's local fallback). RemoteErrors counts those exhausted
	// budgets; LocalFallbacks counts blocks the coordinator solved itself
	// because no worker was reachable.
	BlocksReassigned atomic.Int64
	RemoteErrors     atomic.Int64
	LocalFallbacks   atomic.Int64
}

// NewCoordinator builds a Coordinator with no members; seed static
// workers with AddPeer and let the rest register themselves.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		members: make(map[string]*member),
		stats:   make(map[string]*workerCounters),
	}
}

// AddPeer seeds a static worker (from -peers): trusted alive until it
// fails a solve or starts heartbeating (after which the TTL governs).
func (c *Coordinator) AddPeer(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[id]; !ok {
		c.members[id] = &member{id: id, static: true}
		c.version++
	}
}

// Register adds (or revives) a worker from its registration beat.
func (c *Coordinator) Register(id string) { c.beat(id) }

// Heartbeat refreshes a worker's liveness; unknown workers register.
func (c *Coordinator) Heartbeat(id string) { c.beat(id) }

func (c *Coordinator) beat(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		m = &member{id: id}
		c.members[id] = m
		c.version++
		c.cfg.Logger.Info("cluster worker registered", "worker", id)
	}
	wasDead := m.dead
	m.lastBeat = c.cfg.now()
	m.dead = false
	if wasDead {
		c.cfg.Logger.Info("cluster worker revived", "worker", id)
	}
}

// DeregisterWorker removes a worker immediately — the draining node's
// goodbye. Future blocks place elsewhere without waiting out the TTL.
func (c *Coordinator) DeregisterWorker(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[id]; ok {
		delete(c.members, id)
		c.version++
		c.cfg.Logger.Info("cluster worker deregistered", "worker", id)
	}
}

// markDead benches a worker whose solve attempts exhausted the retry
// budget until its next heartbeat.
func (c *Coordinator) markDead(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[id]; ok && !m.dead {
		m.dead = true
		c.cfg.Logger.Warn("cluster worker marked dead", "worker", id)
	}
}

// owners returns the alive workers in the block's failover order: the
// ring walk from the key, dead and timed-out members skipped. The ring
// spans all known members so one death never moves other blocks.
func (c *Coordinator) owners(key uint64) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil || c.ringVer != c.version {
		ids := make([]string, 0, len(c.members))
		for id := range c.members {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		c.ring = buildRing(ids, c.cfg.VNodes)
		c.ringVer = c.version
	}
	now := c.cfg.now()
	var out []string
	for _, id := range c.ring.walk(key) {
		if m, ok := c.members[id]; ok && m.alive(now, c.cfg.HeartbeatTTL) {
			out = append(out, id)
		}
	}
	return out
}

// WorkersAlive counts members currently eligible for placement.
func (c *Coordinator) WorkersAlive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	n := 0
	for _, m := range c.members {
		if m.alive(now, c.cfg.HeartbeatTTL) {
			n++
		}
	}
	return n
}

// Workers reports every known member, sorted by id.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]WorkerStatus, 0, len(c.members))
	for _, m := range c.members {
		ws := WorkerStatus{
			Worker:             m.id,
			Alive:              m.alive(now, c.cfg.HeartbeatTTL),
			Static:             m.static,
			LastBeatAgeSeconds: -1,
		}
		if !m.lastBeat.IsZero() {
			ws.LastBeatAgeSeconds = now.Sub(m.lastBeat).Seconds()
		}
		if st := c.stats[m.id]; st != nil {
			ws.BlocksSolved = st.blocksSolved.Load()
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// counters returns (creating if needed) a worker's instrumentation.
func (c *Coordinator) counters(id string) *workerCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stats[id]
	if !ok {
		st = &workerCounters{solveDur: obs.NewHistogram()}
		c.stats[id] = st
	}
	return st
}

// Solve runs one distributed solve: the blocked pipeline executes
// locally (seeding, canopy, guard, merge, reconcile) with every dirty
// block handed to c's workers. metricName must resolve to metric via
// distance.ByName and be corpus-independent. The result is bit-for-bit
// what core.Solve computes over keys — see the package comment.
func (c *Coordinator) Solve(ctx context.Context, ds Dataset, keys []string, metric distance.Metric, metricName string, prob core.Problem, strat blocked.Strategy, opts blocked.Options) (*blocked.Result, error) {
	if distance.CorpusDependent(metricName) {
		return nil, fmt.Errorf("cluster: metric %q is corpus-dependent and cannot be distributed", metricName)
	}
	params := ParamsFor(metricName, prob)
	stats := opts.Stats
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	opts.Solver = func(sctx context.Context, members []int) (*blocked.BlockResult, error) {
		return c.solveBlock(sctx, ds, keys, params, prob, metric, members, stats)
	}
	return blocked.Solve(keys, metric, prob, strat, opts)
}

// solveBlock places one block and runs the retry/reassign/fallback
// ladder. Identical inputs always produce the identical BlockResult no
// matter which rung answers: every rung executes blocked.SolveBlock on
// the same records (remotely or locally), and the idempotency key makes
// duplicated work converge on one cached answer.
func (c *Coordinator) solveBlock(ctx context.Context, ds Dataset, keys []string, params Params, prob core.Problem, metric distance.Metric, members []int, stats *core.Phase1Stats) (*blocked.BlockResult, error) {
	key := BlockKey(ds, members)
	records := make([]string, len(members))
	for i, id := range members {
		records[i] = keys[id]
	}
	body, err := json.Marshal(SolveRequest{
		Dataset:  ds.ID,
		Revision: ds.Revision,
		BlockKey: key,
		Params:   params,
		Records:  records,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding block %s: %w", key, err)
	}

	owners := c.owners(hashKey(key))
	for hop, worker := range owners {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		resp, err := c.attempt(ctx, worker, body)
		if err == nil {
			st := c.counters(worker)
			st.blocksSolved.Add(1)
			st.solveDur.ObserveDuration(time.Since(t0))
			if stats != nil {
				stats.Lookups.Add(resp.Lookups)
				stats.Probes.Add(resp.Probes)
			}
			if hop > 0 {
				c.cfg.Logger.Info("block reassigned",
					"block_key", key, "worker", worker, "hops", hop)
			}
			return &blocked.BlockResult{
				Rel:    resp.Rel,
				Groups: resp.Groups,
				Stats:  resp.Stats,
				Dur:    time.Duration(resp.DurNs),
			}, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, fmt.Errorf("cluster: worker %s rejected block %s: %w", worker, key, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		c.markDead(worker)
		c.RemoteErrors.Add(1)
		c.BlocksReassigned.Add(1)
		c.cfg.Logger.Warn("remote block solve failed; reassigning",
			"block_key", key, "worker", worker, "error", err)
	}

	// No worker left: the coordinator is the failover of last resort.
	// Same SolveBlock, same records, same answer — availability without
	// touching exactness.
	c.LocalFallbacks.Add(1)
	res, err := blocked.SolveBlock(records, metric, prob, core.Phase1Options{Ctx: ctx, Stats: stats})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// permanentError marks a worker response that retrying or reassigning
// cannot fix (HTTP 400: the request itself is malformed — version skew).
type permanentError struct {
	status  int
	message string
}

func (e *permanentError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, e.message)
}

// attempt runs the bounded retry loop against one worker: Retries
// attempts, exponential backoff with jitter between them.
func (c *Coordinator) attempt(ctx context.Context, worker string, body []byte) (*SolveResponse, error) {
	var lastErr error
	for try := 0; try < c.cfg.Retries; try++ {
		if try > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.backoff(try)):
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.SolveTimeout)
		resp, err := c.post(actx, worker, body)
		cancel()
		if err == nil {
			return resp, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// backoff computes the pre-try delay: base·2^(try−1) capped at max,
// scaled by jitter uniform in [0.5, 1.5) so synchronized retries from
// concurrent block solves spread out.
func (c *Coordinator) backoff(try int) time.Duration {
	d := c.cfg.BackoffBase << (try - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	return time.Duration(float64(d) * (0.5 + c.cfg.jitter()))
}

// post issues one solve request. 400s are permanent; any other failure
// (network error, 5xx, 503-draining) is retryable.
func (c *Coordinator) post(ctx context.Context, worker string, body []byte) (*SolveResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+SolvePath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error.Message != "" {
			msg = eb.Error.Message
		}
		if resp.StatusCode == http.StatusBadRequest {
			return nil, &permanentError{status: resp.StatusCode, message: msg}
		}
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("decoding solve response: %w", err)
	}
	if sr.Rel == nil {
		return nil, fmt.Errorf("solve response has no relation")
	}
	return &sr, nil
}

// registrationBody is the JSON body of the membership endpoints.
type registrationBody struct {
	Worker string `json:"worker"`
}

func decodeWorker(r *http.Request) (string, error) {
	var b registrationBody
	if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
		return "", fmt.Errorf("invalid body: %w", err)
	}
	if b.Worker == "" {
		return "", fmt.Errorf("missing worker URL")
	}
	return b.Worker, nil
}

// HandleRegister is the POST /v1/internal/cluster/register handler.
func (c *Coordinator) HandleRegister(w http.ResponseWriter, r *http.Request) {
	c.handleBeat(w, r, c.Register)
}

// HandleHeartbeat is the POST /v1/internal/cluster/heartbeat handler.
func (c *Coordinator) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	c.handleBeat(w, r, c.Heartbeat)
}

// HandleDeregister is the POST /v1/internal/cluster/deregister handler.
func (c *Coordinator) HandleDeregister(w http.ResponseWriter, r *http.Request) {
	c.handleBeat(w, r, c.DeregisterWorker)
}

func (c *Coordinator) handleBeat(w http.ResponseWriter, r *http.Request, f func(string)) {
	id, err := decodeWorker(r)
	if err != nil {
		writeClusterError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	f(id)
	writeClusterJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// HandleWorkers is the GET /v1/internal/cluster/workers handler.
func (c *Coordinator) HandleWorkers(w http.ResponseWriter, r *http.Request) {
	writeClusterJSON(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}
