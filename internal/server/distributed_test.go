package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fuzzydup/internal/cluster"
)

// startClusterServers launches n worker nodes plus one coordinator
// statically peered to them, all full dedupd servers behind httptest
// front ends.
func startClusterServers(t *testing.T, n int) (coord *httptest.Server, workers []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		_, ts := newTestServer(t, Config{Role: "worker", Workers: 1})
		workers = append(workers, ts)
		urls[i] = ts.URL
	}
	_, coord = newTestServer(t, Config{Role: "coordinator", Peers: urls, Workers: 2})
	return coord, workers
}

// runBatchAndDistributed runs the same sweep twice — a batch job on a
// standalone node and a distributed job on a three-worker cluster — over
// the seed dataset, requires identical results (groups, duplicates,
// pairs, and representatives), and returns the distributed job's status
// with the cluster's nodes. extra is appended to the job spec.
func runBatchAndDistributed(t *testing.T, extra string) (dist JobStatus, coord *httptest.Server, workers []*httptest.Server) {
	t.Helper()
	_, standalone := newTestServer(t, Config{Workers: 2})
	dsBatch := createSeedDataset(t, standalone.URL)
	coord, workers = startClusterServers(t, 3)
	dsDist := createSeedDataset(t, coord.URL)

	spec := `{"dataset":%q,"mode":"size","k":[3,2],"c":[4]` + extra + `%s}`
	var batch JobStatus
	if code := doJSON(t, "POST", standalone.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(spec, dsBatch, ""), &batch); code != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", code)
	}
	if code := doJSON(t, "POST", coord.URL+"/v1/jobs", "application/json",
		fmt.Sprintf(spec, dsDist, `,"distributed":true`), &dist); code != http.StatusAccepted {
		t.Fatalf("distributed submit: status %d", code)
	}
	waitForState(t, standalone.URL, batch.ID, StateDone)
	waitForState(t, coord.URL, dist.ID, StateDone)

	var batchRes, distRes JobResult
	doJSON(t, "GET", standalone.URL+"/v1/jobs/"+batch.ID+"/result", "", "", &batchRes)
	doJSON(t, "GET", coord.URL+"/v1/jobs/"+dist.ID+"/result", "", "", &distRes)
	if !reflect.DeepEqual(batchRes.Results, distRes.Results) {
		t.Fatalf("distributed sweep diverged from batch\nbatch:       %+v\ndistributed: %+v",
			batchRes.Results, distRes.Results)
	}
	for _, r := range distRes.Results {
		assertPartition(t, r, 10)
	}
	doJSON(t, "GET", coord.URL+"/v1/jobs/"+dist.ID, "", "", &dist)
	return dist, coord, workers
}

// TestDistributedJobMatchesBatch requires a distributed sweep to match
// the batch one, and checks that the solves left the coordinator and
// that the cluster roll-up and the job report count their work.
func TestDistributedJobMatchesBatch(t *testing.T) {
	dist, coord, workers := runBatchAndDistributed(t, "")

	// The solves actually left the coordinator.
	var solves int64
	for _, w := range workers {
		solves += int64(promSum(t, w.URL, "dedupd_worker_block_solves_total"))
	}
	if solves == 0 {
		t.Error("no block solve reached any worker")
	}

	// The coordinator's exposition rolls the fleet up: the aggregated
	// solve counter matches the sum of the workers' own counters.
	if got := int64(promSum(t, coord.URL, "dedupd_cluster_agg_worker_block_solves_total")); got != solves {
		t.Errorf("cluster agg solves = %d, workers report %d", got, solves)
	}

	// Remote block solves count their distance work: the report carries
	// the workers' kernel verifications, and each worker adds its solves
	// to its own distance counter, which the roll-up sums.
	if rep := dist.Report; rep == nil || rep.Phase1Candidates == 0 || rep.DistanceCalls < rep.Phase1Candidates {
		t.Errorf("distributed report misses the workers' distance work: %+v", rep)
	}
	var calls int64
	for _, w := range workers {
		calls += int64(promSum(t, w.URL, "dedupd_distance_calls_total"))
	}
	if calls == 0 {
		t.Error("no worker counted a distance call")
	}
	if got := int64(promSum(t, coord.URL, "dedupd_cluster_agg_distance_calls_total")); got != calls {
		t.Errorf("cluster agg distance calls = %d, workers report %d", got, calls)
	}
	if got := promSum(t, coord.URL, "dedupd_cluster_workers_scraped"); got != 3 {
		t.Errorf("workers_scraped = %v, want 3", got)
	}
	if got := promSum(t, coord.URL, "dedupd_cluster_workers_alive"); got != 3 {
		t.Errorf("workers_alive = %v, want 3", got)
	}
}

// TestDistributedJaccardJobCountsWorkerMetricCalls runs the sweep under
// jaccard, a metric the certified scan cannot bound, so the workers'
// block solves make plain metric calls instead of kernel verifications.
// The job report must count every one of them: its distance_calls must
// cover the workers' own distance counters.
func TestDistributedJaccardJobCountsWorkerMetricCalls(t *testing.T) {
	dist, _, workers := runBatchAndDistributed(t, `,"metric":"jaccard"`)
	var calls int64
	for _, w := range workers {
		calls += int64(promSum(t, w.URL, "dedupd_distance_calls_total"))
	}
	if calls == 0 {
		t.Fatal("no worker counted a distance call")
	}
	if rep := dist.Report; rep == nil || rep.DistanceCalls < calls {
		t.Errorf("distributed report misses the workers' metric calls (workers report %d): %+v", calls, rep)
	}
}

// promSum scrapes a node through the strict lint helper and sums the
// named family's direct samples (histogram _bucket/_count/_sum lines
// are excluded).
func promSum(t *testing.T, base, family string) float64 {
	t.Helper()
	fam, ok := scrapeProm(t, base)[family]
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range fam.Samples {
		if s.Name == family {
			sum += s.Value
		}
	}
	return sum
}

// TestDistributedJobValidation pins the spec gate: distributed jobs need
// a coordinator node and reject options the cluster cannot honor.
func TestDistributedJobValidation(t *testing.T) {
	_, standalone := newTestServer(t, Config{Workers: 1})
	ds := createSeedDataset(t, standalone.URL)
	for name, body := range map[string]string{
		"standalone node":         fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"distributed":true}`, ds),
		"corpus-dependent metric": fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"metric":"fms","distributed":true}`, ds),
		"incremental":             fmt.Sprintf(`{"dataset":%q,"mode":"size","k":[3],"c":[4],"incremental":true,"distributed":true}`, ds),
	} {
		var eb struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if code := doJSON(t, "POST", standalone.URL+"/v1/jobs", "application/json", body, &eb); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

// TestWorkerGracefulDrain shuts a worker node down mid-membership: it
// must deregister from its coordinator (not wait out the TTL) and
// refuse new solves while doing so.
func TestWorkerGracefulDrain(t *testing.T) {
	_, coordTS := newTestServer(t, Config{Role: "coordinator", Workers: 1})

	// The worker is built by hand so the test owns its Shutdown.
	w, err := New(Config{
		Role:              "worker",
		Workers:           1,
		Peers:             []string{coordTS.URL},
		HeartbeatInterval: 10 * time.Millisecond,
		Logger:            testLogger(t),
	})
	if err == nil {
		t.Fatal("worker with peers but no advertise URL must be rejected")
	}
	workerTS := httptest.NewUnstartedServer(nil)
	workerTS.Start()
	w, err = New(Config{
		Role:              "worker",
		Workers:           1,
		Peers:             []string{coordTS.URL},
		Advertise:         workerTS.URL,
		HeartbeatInterval: 10 * time.Millisecond,
		Logger:            testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	workerTS.Config.Handler = w.Handler()
	defer workerTS.Close()

	// Registration flows worker -> coordinator.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var body struct {
			Workers []cluster.WorkerStatus `json:"workers"`
		}
		doJSON(t, "GET", coordTS.URL+cluster.WorkersPath, "", "", &body)
		if len(body.Workers) == 1 && body.Workers[0].Worker == workerTS.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", body.Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Graceful shutdown: deregister immediately, then refuse new solves.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Shutdown(ctx); err != nil {
		t.Fatalf("worker shutdown: %v", err)
	}
	var after struct {
		Workers []cluster.WorkerStatus `json:"workers"`
	}
	doJSON(t, "GET", coordTS.URL+cluster.WorkersPath, "", "", &after)
	if len(after.Workers) != 0 {
		t.Errorf("worker still in membership after graceful shutdown: %+v", after.Workers)
	}
	// The listener is still up (the real binary closes it after the
	// drain); a late solve gets a drain rejection, the coordinator's
	// signal to place the block elsewhere.
	code := doJSON(t, "POST", workerTS.URL+cluster.SolvePath, "application/json",
		`{"block_key":"k","records":["a","b"],"params":{"metric":"ed","max_size":3,"agg":"max","c":3}}`, nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain solve: status %d, want 503", code)
	}
}
