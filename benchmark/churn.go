package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fuzzydup"
	"fuzzydup/internal/dataset"
)

// The churn workload: dedupd with a WAL (fsync on) and an incremental
// DE_S(4, c=4) session over a census corpus. One closed-loop writer
// issues a seeded mix of PUT, NDJSON append, and DELETE; each write is
// timed until its auto-submitted repair job is done (the snapshot is
// published before done). Beside it, one closed-loop reader sends point
// queries. After the loop the session's groups must equal a fresh exact
// solve of the final records.

const (
	churnDefaultSize = 300
	churnQuerySet    = 400
)

// The churn write mix. No record of real write traffic exists to derive
// it from, so these shares are assumptions, not measurements:
//   - appends and deletes are equally likely, so the corpus size drifts
//     around its initial size and a repair late in a window costs about
//     what one early in it costs;
//   - sizeBandPct bounds that drift: below the band every write is an
//     append, above it every write is a delete;
//   - PUT, which rewrites one record in place, takes the rest. With
//     near-even shares each kind gets 25 or more samples in a 25 s window
//     (about 90 writes), and the report prints each kind's visible-time
//     p50, since the gated p50 mixes them.
const (
	putPct      = 40
	appendPct   = 30 // deletes take the remaining 30
	sizeBandPct = 10
)

// churnSpec is the incremental job every repair resubmits.
func churnSpec(ds string) map[string]any {
	return map[string]any{"dataset": ds, "mode": "size", "k": []int{jobK}, "c": []float64{jobC}, "incremental": true}
}

// writeOp is one measured write.
type writeOp struct {
	method  string
	ack     time.Duration // write sent → response received
	visible time.Duration // write sent → repair job observed done
	job     jobStatus
}

// mutator draws the seeded write mix over the live records.
type mutator struct {
	rng   *rand.Rand
	live  []int64
	recs  map[int64]fuzzydup.Record
	fresh []fuzzydup.Record // unseen census records for appends and replacements
	size  int               // initial corpus size; deletes keep the corpus near it

	// slot mirrors the incremental session's stable ID of every live rid:
	// the session numbers the initial records 0..n-1 in dataset order, a
	// delete frees its ID, and an insert takes the smallest free ID. The
	// session's partition is the exact solve of the records in ID order,
	// which differs from dataset order once an insert reuses a freed ID.
	slot   map[int64]int
	free   []int
	nextID int
}

// deleted frees rid's session ID.
func (m *mutator) deleted(rid int64) {
	m.free = append(m.free, m.slot[rid])
	delete(m.slot, rid)
}

// inserted gives rid the ID the session assigns an inserted record.
func (m *mutator) inserted(rid int64) {
	if len(m.free) == 0 {
		m.slot[rid] = m.nextID
		m.nextID++
		return
	}
	sort.Ints(m.free)
	m.slot[rid] = m.free[0]
	m.free = m.free[1:]
}

// next returns the next write: method, path suffix, and body.
func (m *mutator) next(ds string) (method, path string, body []byte) {
	pick := m.rng.Intn(100)
	switch n := len(m.live); {
	case n < m.size*(100-sizeBandPct)/100:
		pick = putPct // append
	case n > m.size*(100+sizeBandPct)/100:
		pick = putPct + appendPct // delete
	}
	base := "/v1/datasets/" + ds + "/records"
	switch {
	case pick < putPct: // PUT: a one-edit variant of the record, or a fresh one
		rid := m.live[m.rng.Intn(len(m.live))]
		rec := m.freshOrVariant(m.recs[rid])
		b, _ := json.Marshal(rec)
		m.recs[rid] = rec
		return "PUT", fmt.Sprintf("%s/%d", base, rid), b
	case pick < putPct+appendPct: // NDJSON append of one record
		src := m.recs[m.live[m.rng.Intn(len(m.live))]]
		b, _ := json.Marshal(m.freshOrVariant(src))
		return "POST", base, append(b, '\n')
	default: // DELETE
		i := m.rng.Intn(len(m.live))
		rid := m.live[i]
		m.live[i] = m.live[len(m.live)-1]
		m.live = m.live[:len(m.live)-1]
		delete(m.recs, rid)
		m.deleted(rid)
		return "DELETE", fmt.Sprintf("%s/%d", base, rid), nil
	}
}

// freshOrVariant returns a near-duplicate of src (one edit) or an unseen
// record, half and half.
func (m *mutator) freshOrVariant(src fuzzydup.Record) fuzzydup.Record {
	if m.rng.Intn(2) == 0 && len(m.fresh) > 0 {
		rec := m.fresh[0]
		m.fresh = m.fresh[1:]
		return rec
	}
	return oneEdit(m.rng, src)
}

func runChurn(r *run) error {
	size := r.opts.size
	if size == 0 {
		size = churnDefaultSize
	}
	r.recordEnv("dataset.Census", size, "WAL group commit, fsync on")

	var (
		d     *dedupd
		state *solvedState
		ds    *dataset.Dataset
	)
	keep, err := r.timeSetups(r.opts.setups, func() (func(), error) {
		gen, err := generate("dataset.Census", func() *dataset.Dataset {
			return dataset.Census(dataset.Config{Size: size, Seed: r.opts.seed})
		})
		if err != nil {
			return nil, err
		}
		srv, err := startDedupd(filepath.Join(r.opts.scratch, fmt.Sprintf("data-%d", time.Now().UnixNano())))
		if err != nil {
			return nil, err
		}
		cl := srv.newClient()
		defer cl.close()
		spec := churnSpec("")
		delete(spec, "dataset")
		st, err := solveDataset(cl, "census", toRecords(gen.Records), spec)
		r.op(err)
		if err != nil {
			srv.stop()
			return nil, err
		}
		d, state, ds = srv, st, gen
		return srv.stop, nil
	})
	if err != nil {
		return err
	}
	defer keep()
	r.say("corpus %d records, %d groups; session build job queue %.1f ms, run %.1f ms",
		len(state.recs), len(state.groups), jobQueueMs(state.job), jobRunMs(state.job))

	fresh, err := generate("dataset.Census", func() *dataset.Dataset {
		return dataset.Census(dataset.Config{Size: size, Seed: r.opts.seed + 1_000_003})
	})
	if err != nil {
		return err
	}
	mut := &mutator{
		rng:    rand.New(rand.NewSource(r.opts.seed)),
		recs:   make(map[int64]fuzzydup.Record, len(state.rids)),
		fresh:  toRecords(fresh.Records),
		size:   len(state.rids),
		slot:   make(map[int64]int, len(state.rids)),
		nextID: len(state.rids),
	}
	for i, rid := range state.rids {
		mut.live = append(mut.live, rid)
		mut.recs[rid] = state.recs[i]
		mut.slot[rid] = i
	}
	qs, _ := drawQueries(r.opts.seed, toRecords(ds.Records), churnQuerySet)

	untraced, _, _, err := r.churnWindow(d, state.ds, mut, qs, nil)
	if err != nil {
		return err
	}
	for k, v := range untraced {
		r.e2e[k] = v
	}
	if r.opts.trace {
		tr := newTracer()
		traced, reads, writes, err := r.churnWindow(d, state.ds, mut, qs, tr)
		if err != nil {
			return err
		}
		r.compareWindows("trace overhead", "untraced", untraced, "traced", traced)
		final, err := r.checkChurnFinal(d, state.ds, mut)
		if err != nil {
			return err
		}
		if err := r.querysnapLayers(tr, final, qs, reads); err != nil {
			return err
		}
		var queue, runT []float64
		for _, w := range writes {
			queue = append(queue, jobQueueMs(w.job))
			runT = append(runT, jobRunMs(w.job))
		}
		r.layer("server.job_queue_ms", median(queue))
		r.layer("server.job_run_ms", median(runT))
		r.reportSelfTimes(tr)
		r.absentPrefix("incremental repairs run their own exact lookups; nnindex.Pruned, core sweeps and blocked are not on this path",
			"nnindex.", "core.", "blocked.")
		r.absentPrefix("churn sends no SQL", "sqlwire.")
		return nil
	}
	_, err = r.checkChurnFinal(d, state.ds, mut)
	return err
}

// churnWindow runs the writer and the reader for the configured seconds.
func (r *run) churnWindow(d *dedupd, ds string, mut *mutator, qs []pointQuery, tr *tracer) (map[string]float64, []queryOp, []writeOp, error) {
	probe := d.newClient()
	defer probe.close()
	before, err := probe.scrape()
	if err != nil {
		return nil, nil, nil, err
	}
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	var (
		wg     sync.WaitGroup
		writes []writeOp
		reads  []queryOp
		werr   error
	)
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := d.newClient()
		defer cl.close()
		for time.Now().Before(deadline) {
			w, err := r.writeOnce(cl, ds, mut, tr)
			if err != nil {
				werr = err
				return
			}
			writes = append(writes, w)
		}
	}()
	go func() {
		defer wg.Done()
		cl := d.newClient()
		defer cl.close()
		perm := rand.New(rand.NewSource(r.opts.seed + 7)).Perm(len(qs))
		for i := 0; time.Now().Before(deadline); i++ {
			reads = append(reads, r.pointOp(cl, ds, qs, perm[i%len(qs)], tr, false))
		}
	}()
	wg.Wait()
	wall := time.Since(t0)
	if werr != nil {
		return nil, nil, nil, werr
	}
	after, err := probe.scrape()
	if err != nil {
		return nil, nil, nil, err
	}

	var visible, ack []float64
	byMethod := map[string][]float64{}
	for _, w := range writes {
		visible = append(visible, ms(w.visible))
		ack = append(ack, ms(w.ack))
		byMethod[w.method] = append(byMethod[w.method], ms(w.visible))
	}
	// Reads are classified as drawn: a drawn near-miss stays one whatever
	// the writes did, so the gated miss p50 does not depend on how many
	// writes the window completed. Reads the server answered otherwise
	// are counted here and left out of the latencies.
	hit, miss := latencies(reads, "hit", us), latencies(reads, "miss", us)
	reclassified := map[string]int{}
	for _, o := range reads {
		if o.reclassified {
			reclassified[o.kind]++
		}
	}
	tag := "untraced"
	if tr != nil {
		tag = "traced"
	}
	r.say("%s window %.2f s, %d writes (PUT %d, POST %d, DELETE %d), %d reads", tag, wall.Seconds(),
		len(writes), len(byMethod["PUT"]), len(byMethod["POST"]), len(byMethod["DELETE"]), len(reads))
	r.say("reads answered unlike drawn, left out: %d drawn hits without a match (record since edited or deleted), %d drawn near-misses with one",
		reclassified["hit"], reclassified["miss"])
	r.latency("mutate_visible_ms", "ms", visible)
	for _, m := range []string{"PUT", "POST", "DELETE"} {
		r.latency("  visible_ms "+m, "ms", byMethod[m])
	}
	r.latency("mutate_ack_ms", "ms", ack)
	r.latency("query_hit_us", "us", hit)
	r.latency("query_miss_us", "us", miss)
	r.say("mutations_per_s %.3f 1/s", float64(len(writes))/wall.Seconds())
	repairs := delta(before, after, "dedupd_repairs_run_total")
	r.say("repairs %.0f, repair time (dedupd_repair_duration_ms diff): %s", repairs,
		histDelta(before, after, "dedupd_repair_duration_ms").describe("ms"))
	r.say("WAL fsync (dedupd_wal_fsync_duration_ms diff): %s", histDelta(before, after, "dedupd_wal_fsync_duration_ms").describe("ms"))

	if tr != nil && len(writes) > 0 {
		nw := float64(len(writes))
		rh := histDelta(before, after, "dedupd_repair_duration_ms")
		r.layer("incremental.repair_ms", rh.mean())
		r.layer("incremental.repairs_per_mutation", repairs/nw)
		if repairs > 0 {
			perRepair := delta(before, after, "dedupd_repair_dirty_lookups_total") / repairs
			r.layer("incremental.dirty_lookups_per_repair", perRepair)
			r.layer("incremental.dirty_frac", perRepair/float64(len(mut.live)))
		}
		r.layer("durable.wal_append_ms", histDelta(before, after, "dedupd_wal_append_duration_ms").mean())
		r.layer("durable.wal_fsync_ms", histDelta(before, after, "dedupd_wal_fsync_duration_ms").mean())
		r.layer("durable.fsyncs_per_mutation", delta(before, after, "dedupd_wal_fsyncs_total")/nw)
		r.layer("durable.wal_bytes_per_mutation", delta(before, after, "dedupd_wal_bytes_total")/nw)
		r.say("snapshot republish (dedupd_snapshot_build_duration_ms diff): %s",
			histDelta(before, after, "dedupd_snapshot_build_duration_ms").describe("ms"))
		r.runtimeLayers(before, after)
	}
	return map[string]float64{
		"primary_p50_ms":   median(visible),
		"secondary_p50_ms": median(miss) / 1000,
		"tertiary_p50_ms":  median(ack),
		"ops_per_s":        float64(len(writes)) / wall.Seconds(),
	}, reads, writes, nil
}

// writeOnce sends one write and waits until its repair job is done.
func (r *run) writeOnce(cl *client, ds string, mut *mutator, tr *tracer) (writeOp, error) {
	method, path, body := mut.next(ds)
	root := tr.root("churn.write", "harness")
	sp := root.child("http."+method, "server")
	t0 := time.Now()
	var resp mutationResponse
	_, err := cl.do(method, path, body, &resp)
	ack := time.Since(t0)
	sp.end()
	r.op(err)
	if err != nil {
		root.end()
		return writeOp{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if method == "POST" {
		mut.live = append(mut.live, resp.RecordIDs...)
		var rec fuzzydup.Record
		if err := json.Unmarshal(body, &rec); err != nil {
			root.end()
			return writeOp{}, err
		}
		for _, rid := range resp.RecordIDs {
			mut.recs[rid] = rec
			mut.inserted(rid)
		}
	}
	if resp.RepairJob == "" {
		root.end()
		return writeOp{}, fmt.Errorf("%s %s: no repair job submitted", method, path)
	}
	sp = root.child("repair.wait", "incremental")
	st, err := cl.waitJob(resp.RepairJob, jobTimeout)
	sp.end()
	root.end()
	if err != nil {
		return writeOp{}, err
	}
	return writeOp{method: method, ack: ack, visible: time.Since(t0), job: st}, nil
}

// checkChurnFinal runs one more incremental job (no-op repair) so the
// result carries the final records' rids, then compares its groups with
// a fresh exact solve of the final records in the session's ID order. It
// also reports, without failing, whether a solve in dataset order (what
// a batch job computes) agrees. It returns the final solved state.
func (r *run) checkChurnFinal(d *dedupd, ds string, mut *mutator) (*solvedState, error) {
	cl := d.newClient()
	defer cl.close()
	st, err := cl.submitJob(churnSpec(ds))
	r.op(err)
	if err != nil {
		return nil, err
	}
	if st, err = cl.waitJob(st.ID, jobTimeout); err != nil {
		return nil, err
	}
	res, err := cl.jobResult(st.ID)
	if err != nil {
		return nil, err
	}
	items, err := cl.listRecords(ds)
	if err != nil {
		return nil, err
	}
	recs := make([]fuzzydup.Record, len(items))
	rids := make([]int64, len(items))
	for i, it := range items {
		recs[i], rids[i] = it.Record, it.RID
	}
	if len(res.Results) == 0 || fmt.Sprint(res.RecordIDs) != fmt.Sprint(rids) {
		r.check(false, "final session result covers %d records, the dataset holds %d", len(res.RecordIDs), len(rids))
		return newSolvedState(ds, recs, rids, sweepResult{}, st), nil
	}
	groups := res.Results[0].Groups
	if r.opts.corrupt {
		groups = corruptPartition(groups)
	}
	got := ridPartition(groups, res.RecordIDs)

	bySlot := make([]int, len(rids)) // the final records in session ID order
	for i := range bySlot {
		bySlot[i] = i
	}
	sort.Slice(bySlot, func(a, b int) bool { return mut.slot[rids[bySlot[a]]] < mut.slot[rids[bySlot[b]]] })
	slotRecs := make([]fuzzydup.Record, len(bySlot))
	slotRIDs := make([]int64, len(bySlot))
	for i, idx := range bySlot {
		slotRecs[i], slotRIDs[i] = recs[idx], rids[idx]
	}
	exp, err := exactPartition(slotRecs, slotRIDs)
	if err != nil {
		return nil, err
	}
	r.check(got == exp, "session groups differ from a fresh exact solve of the %d final records: session %s",
		len(recs), firstDifference(got, exp))
	if batch, err := exactPartition(recs, rids); err == nil && batch != exp {
		r.say("note: the exact solve in dataset order (a batch job's order) differs from the one in session ID order: %s",
			firstDifference(batch, exp))
	}
	return newSolvedState(ds, recs, res.RecordIDs, res.Results[0], st), nil
}

// exactPartition solves DE_S(jobK, c=jobC) exactly over recs, in the
// given order, and renders the groups by rid.
func exactPartition(recs []fuzzydup.Record, rids []int64) (string, error) {
	dd, err := fuzzydup.New(recs, fuzzydup.Options{Parallel: nproc})
	if err != nil {
		return "", err
	}
	g, err := dd.GroupsBySize(jobK, jobC)
	if err != nil {
		return "", err
	}
	return ridPartition(g, rids), nil
}

// firstDifference shows where two rendered partitions first differ.
func firstDifference(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("…%s… vs …%s…", a[lo:min(len(a), i+60)], b[lo:min(len(b), i+60)])
}

// ridPartition renders a partition over record indexes as a canonical
// string of rid groups.
func ridPartition(groups [][]int, rids []int64) string {
	out := make([][]int64, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		m := make([]int64, 0, len(g))
		for _, idx := range g {
			if idx < 0 || idx >= len(rids) {
				return fmt.Sprintf("invalid index %d", idx)
			}
			m = append(m, rids[idx])
		}
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return fmt.Sprint(out)
}
