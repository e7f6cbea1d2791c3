// Package cluster distributes the blocked solve pipeline across
// processes: a coordinator partitions the corpus with the usual blocking
// strategy, places each block on a worker dedupd node by consistent
// hashing, and ships the block's records over HTTP
// (POST /v1/internal/blocks/solve) to be solved remotely. The boundary
// guard, merge loop, and reconciliation all stay on the coordinator —
// internal/blocked runs unchanged with its per-block solve swapped for a
// remote call — so the distributed result is bit-for-bit the partition
// core.Solve produces on the whole corpus (DESIGN.md §8 and §11).
//
// The exactness argument is structural: a worker executes
// blocked.SolveBlock, the same function the local pipeline calls for
// every block, on the same records in the same (ascending global ID)
// order, and every number that crosses the wire — neighbor distances,
// growth counts, group members — round-trips exactly (encoding/json
// emits the shortest float64 representation that parses back to the same
// bits). What the guard certifies locally it therefore certifies
// identically for remote results.
//
// Failure handling never trades exactness for availability: a block
// whose worker dies is reassigned to the next owner on the hash ring
// (bounded retries with exponential backoff and jitter first), and when
// no worker is reachable the coordinator solves the block itself. Remote
// solves are idempotent — a block is keyed by its dataset, revision, and
// member set, so a retried or reassigned-and-then-duplicated request
// returns the cached result instead of recomputing.
//
// Only corpus-independent metrics are admissible: an IDF-weighted metric
// (fms, cosine, soft-tfidf) computed over one block's records would
// differ from the corpus-wide weighting, silently changing distances.
// Params.Problem rejects them, as does the job-spec validation above.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
)

// SolvePath is the worker endpoint a coordinator POSTs block solves to.
const SolvePath = "/v1/internal/blocks/solve"

// Paths of the coordinator's membership endpoints. Register and
// heartbeat are interchangeable (a heartbeat from an unknown worker
// registers it); deregister removes the worker immediately, which is how
// a draining node hands its future blocks back.
const (
	RegisterPath   = "/v1/internal/cluster/register"
	HeartbeatPath  = "/v1/internal/cluster/heartbeat"
	DeregisterPath = "/v1/internal/cluster/deregister"
	WorkersPath    = "/v1/internal/cluster/workers"
)

// Dataset identifies the exact corpus snapshot a distributed solve runs
// against. The revision pins block keys to one mutation state: the same
// member set at a different revision is a different block, so stale
// cached results can never serve a newer corpus.
type Dataset struct {
	ID       string
	Revision int64
}

// Params is the wire form of a solve's parameterization: the metric by
// registry name and the core.Problem fields, with the aggregation as its
// string name. It deliberately carries no closures (Problem.Exclude
// cannot be shipped) and only admits corpus-independent metrics.
type Params struct {
	Metric         string  `json:"metric"`
	MaxSize        int     `json:"max_size,omitempty"`
	Diameter       float64 `json:"diameter,omitempty"`
	Agg            string  `json:"agg"`
	C              float64 `json:"c"`
	P              float64 `json:"p,omitempty"`
	MinimalCompact bool    `json:"minimal_compact,omitempty"`
}

// ParamsFor captures a problem (and the metric's registry name) for the
// wire. The caller guarantees prob has no Exclude predicate; blocked.Solve
// enforces it for the distributed path.
func ParamsFor(metric string, prob core.Problem) Params {
	return Params{
		Metric:         metric,
		MaxSize:        prob.Cut.MaxSize,
		Diameter:       prob.Cut.Diameter,
		Agg:            prob.Agg.String(),
		C:              prob.C,
		P:              prob.P,
		MinimalCompact: prob.MinimalCompact,
	}
}

// Problem reconstructs the core problem, validating the parameters and
// rejecting corpus-dependent metrics.
func (p Params) Problem() (core.Problem, error) {
	if distance.CorpusDependent(p.Metric) {
		return core.Problem{}, fmt.Errorf("cluster: metric %q is corpus-dependent and cannot be solved block-locally", p.Metric)
	}
	agg, err := core.ParseAgg(p.Agg)
	if err != nil {
		return core.Problem{}, err
	}
	prob := core.Problem{
		Cut:            core.Cut{MaxSize: p.MaxSize, Diameter: p.Diameter},
		Agg:            agg,
		C:              p.C,
		P:              p.P,
		MinimalCompact: p.MinimalCompact,
	}
	if err := prob.Validate(); err != nil {
		return core.Problem{}, err
	}
	return prob, nil
}

// fingerprint is the cache-key suffix distinguishing solves of the same
// block under different parameters.
func (p Params) fingerprint() string {
	return fmt.Sprintf("%s|%d|%g|%s|%g|%g|%t", p.Metric, p.MaxSize, p.Diameter, p.Agg, p.C, p.P, p.MinimalCompact)
}

// SolveRequest is the body of POST /v1/internal/blocks/solve: one
// block's records in ascending global-ID order plus everything needed to
// solve them exactly. BlockKey is the idempotency token — dataset,
// revision, and member set hashed together — so retries and reassignment
// duplicates are answered from the worker's cache.
type SolveRequest struct {
	Dataset  string   `json:"dataset"`
	Revision int64    `json:"revision"`
	BlockKey string   `json:"block_key"`
	Params   Params   `json:"params"`
	Records  []string `json:"records"`
}

// SolveResponse is one solved block in local coordinates, exactly a
// blocked.BlockResult plus instrumentation. All fields round-trip JSON
// bit-for-bit (float64s marshal at shortest-exact precision).
type SolveResponse struct {
	Rel    *core.NNRelation    `json:"rel"`
	Groups [][]int             `json:"groups"`
	Stats  core.PartitionStats `json:"stats"`
	// DurNs is the worker-side solve wall clock in nanoseconds.
	DurNs int64 `json:"dur_ns"`
	// Cached reports the response was replayed from the idempotency
	// cache rather than recomputed.
	Cached bool `json:"cached,omitempty"`
	// Lookups, Probes and the certified scan's Pruned, Candidates and
	// Fallbacks are the solve's core.Phase1Stats counters, folded into
	// the coordinator's stats so distributed runs report true totals.
	Lookups    int64 `json:"lookups"`
	Probes     int64 `json:"probes"`
	Pruned     int64 `json:"pruned"`
	Candidates int64 `json:"candidates"`
	Fallbacks  int64 `json:"fallbacks"`
	// MetricCalls is the solve's calls of the metric itself, outside the
	// bounded kernel (the index's exact fallbacks, such as every lookup
	// under a metric the scan cannot bound), added to the coordinator's
	// metric when that is a distance.Counting.
	MetricCalls int64 `json:"metric_calls"`
}

// errorBody mirrors the server's structured error shape so cluster
// responses read like every other dedupd error.
type errorBody struct {
	Error apiError `json:"error"`
}

type apiError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BlockKey derives the idempotency key of a block: FNV-64a over the
// dataset ID, its revision, and the ascending member IDs. Two requests
// carry the same key iff they describe the same records of the same
// corpus state, which is exactly when replaying a cached solve is sound.
func BlockKey(ds Dataset, members []int) string {
	h := fnv.New64a()
	h.Write([]byte(ds.ID))
	var buf [binary.MaxVarintLen64]byte
	h.Write(buf[:binary.PutVarint(buf[:], ds.Revision)])
	for _, m := range members {
		h.Write(buf[:binary.PutVarint(buf[:], int64(m))])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashKey maps a block key onto the ring's keyspace. The mix64
// finalizer matters here too: block keys are short hex strings, the
// regime where raw FNV clusters (see ring.go).
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// WorkerStatus is one row of GET /v1/internal/cluster/workers: the
// worker's identity (its advertised base URL), liveness, and how much
// work the coordinator has routed to it.
type WorkerStatus struct {
	Worker string `json:"worker"`
	Alive  bool   `json:"alive"`
	// Static marks a worker seeded from -peers rather than registered by
	// a heartbeat; it is trusted alive until it fails or starts beating.
	Static bool `json:"static"`
	// LastBeatAgeSeconds is the age of the last heartbeat, -1 if the
	// worker has never heartbeated (static seeds before their first beat).
	LastBeatAgeSeconds float64 `json:"last_beat_age_seconds"`
	BlocksSolved       int64   `json:"blocks_solved"`
}
