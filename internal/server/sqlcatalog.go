package server

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fuzzydup"
	"fuzzydup/internal/blocking"
	"fuzzydup/internal/core"
	"fuzzydup/internal/distance"
	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/sqldb"
	"fuzzydup/internal/strutil"
)

// The SQL catalog: live server state exposed as sqldb virtual tables
// plus the DEDUP table function. Every SQL connection gets its own
// sqldb.DB (the engine is single-threaded), but all of them share one
// catalog — the catalog itself holds no per-query state and every
// method is safe for concurrent use.
//
//	datasets(dataset, records, rev, created)
//	records(dataset, rid, record, block_key)
//	dup_groups(dataset, rid, record, group_id, group_size, diameter, is_rep)
//	nn_reln(dataset, rid, rank, neighbor_rid, distance, ng)
//	DEDUP(dataset [, k [, theta [, c]]])
//
// dup_groups and nn_reln read the dataset's published query snapshot
// (the committed state of its last finished job) and are empty until
// one exists. DEDUP reuses the snapshot when it was solved at the
// current revision for the same solve key (problem and point) and
// otherwise submits a job through the engine and blocks on it. group_id
// is everywhere the smallest member rid — a labeling that is stable
// between full and restricted solves, which is what makes the pushdown
// path's output comparable bit-for-bit against the unrestricted one.
//
// The rows of unrestricted DEDUP, dup_groups and nn_reln are built once
// per published snapshot, by its first SQL reader, and held on the
// publication itself (published in query.go): every later read of that
// snapshot returns the same slices, which sqldb never writes.

// blockKeyLen is the normalized-prefix length of the block_key column —
// the same FirstNChars(4) key the blocked pipeline's default strategy
// seeds blocks from, which is what makes equality predicates on it
// translatable into a restricted blocked solve.
const blockKeyLen = 4

// blockKeyOf computes the block_key column for one record: the first
// FirstNChars key of the joined field string, or "" for records whose
// normalized form is empty (those render as NULL).
func blockKeyOf(rec fuzzydup.Record) string { return firstKeyString(strutil.JoinFields(rec)) }

// firstKeyString is blockKeyOf for an already-joined record string.
func firstKeyString(key string) string {
	keys := blocking.FirstNChars(blockKeyLen)(key)
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// sqlCatalog implements sqldb.Catalog over the store, the engine, and
// the engine's snapshot registry.
type sqlCatalog struct {
	store  *Store
	engine *Engine

	mu sync.Mutex
	// dedupCache holds restricted DEDUP results keyed by their full
	// fingerprint (dataset, rev, solve key, sorted block keys).
	dedupCache map[string][][]sqldb.Value
}

// maxDedupCacheEntries bounds the restricted-result cache; on overflow
// the whole cache is dropped (entries are cheap to recompute relative
// to bookkeeping an eviction order).
const maxDedupCacheEntries = 32

func newSQLCatalog(store *Store, engine *Engine) *sqlCatalog {
	return &sqlCatalog{
		store:      store,
		engine:     engine,
		dedupCache: make(map[string][][]sqldb.Value),
	}
}

// forget drops a deleted dataset's restricted DEDUP results. Its
// snapshot rows go with the snapshot (snapRegistry.drop).
func (c *sqlCatalog) forget(dataset string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for fp := range c.dedupCache {
		if strings.HasPrefix(fp, dataset+"|") {
			delete(c.dedupCache, fp)
		}
	}
}

// lazyRows is one table's rows for one publication, built by the first
// reader that needs them. Readers arriving mid-build wait for it rather
// than build again; a failed build (its reader's context ended) is not
// kept, so the next reader retries.
type lazyRows struct {
	mu    sync.Mutex
	built bool
	rows  [][]sqldb.Value
}

func (l *lazyRows) get(build func() ([][]sqldb.Value, error)) ([][]sqldb.Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.built {
		rows, err := build()
		if err != nil {
			return nil, err
		}
		l.rows, l.built = rows, true
	}
	return l.rows, nil
}

// appendRows adds one dataset's rows to out. A lone dataset's rows come
// back as they are, shared, with their capacity clipped so that a later
// append copies them instead of writing past their end.
func appendRows(out, rows [][]sqldb.Value) [][]sqldb.Value {
	if out == nil {
		return rows[:len(rows):len(rows)]
	}
	return append(out, rows...)
}

// VirtualTable implements sqldb.Catalog.
func (c *sqlCatalog) VirtualTable(name string) (sqldb.VirtualTable, bool) {
	switch strings.ToLower(name) {
	case "datasets":
		return &datasetsTable{c}, true
	case "records":
		return &recordsTable{c}, true
	case "dup_groups":
		return &dupGroupsTable{c}, true
	case "nn_reln":
		return &nnRelnTable{c}, true
	}
	return nil, false
}

// TableFunc implements sqldb.Catalog.
func (c *sqlCatalog) TableFunc(name string) (sqldb.TableFunc, bool) {
	if strings.EqualFold(name, "dedup") {
		return &dedupFunc{c}, true
	}
	return nil, false
}

// pushedStrings collects the TEXT values pushed down for a column
// (equality or IN). ok is false when the column has no pushdown — the
// caller must then enumerate everything. Non-text values match nothing
// (the executor's re-check would reject them anyway) and are dropped.
func pushedStrings(push []sqldb.Pushdown, column string) (map[string]bool, bool) {
	var set map[string]bool
	found := false
	for _, p := range push {
		if !strings.EqualFold(p.Column, column) {
			continue
		}
		found = true
		vals := make(map[string]bool)
		for _, v := range p.Values {
			if v.Kind == sqldb.KindText {
				vals[v.Str] = true
			}
		}
		if set == nil {
			set = vals
		} else {
			// Two conjuncts on the same column intersect.
			for k := range set {
				if !vals[k] {
					delete(set, k)
				}
			}
		}
	}
	return set, found
}

// datasetIDs returns the dataset IDs to enumerate, honoring a pushdown
// on the dataset column when present (advisory: a pushed name that does
// not exist simply contributes no rows).
func (c *sqlCatalog) datasetIDs(push []sqldb.Pushdown) []string {
	if want, ok := pushedStrings(push, "dataset"); ok {
		ids := make([]string, 0, len(want))
		for id := range want {
			if _, err := c.store.Get(id); err == nil {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		return ids
	}
	infos := c.store.List()
	ids := make([]string, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	sort.Strings(ids)
	return ids
}

// capped guards source-side materialization: a virtual table must never
// silently truncate (the executor cannot tell a truncated set from a
// complete one), so exceeding the offered limit fails the query early
// with the same ErrMaxRows the executor itself would raise.
func capped(rows [][]sqldb.Value, limit int, what string) ([][]sqldb.Value, error) {
	if limit > 0 && len(rows) > limit {
		return nil, fmt.Errorf("%w: %s materialized %d rows, cap %d", sqldb.ErrMaxRows, what, len(rows), limit)
	}
	return rows, nil
}

// textOrNull renders "" as NULL (block keys of empty records).
func textOrNull(s string) sqldb.Value {
	if s == "" {
		return sqldb.Null()
	}
	return sqldb.Text(s)
}

// --- datasets ---------------------------------------------------------

type datasetsTable struct{ c *sqlCatalog }

func (t *datasetsTable) Columns() []sqldb.ColumnDef {
	return []sqldb.ColumnDef{
		{Name: "dataset", Type: sqldb.TypeText},
		{Name: "records", Type: sqldb.TypeInt},
		{Name: "rev", Type: sqldb.TypeInt},
		{Name: "created", Type: sqldb.TypeText},
	}
}

func (t *datasetsTable) Rows(ctx context.Context, push []sqldb.Pushdown, limit int) ([][]sqldb.Value, error) {
	var out [][]sqldb.Value
	for _, id := range t.c.datasetIDs(push) {
		info, err := t.c.store.Get(id)
		if err != nil {
			continue // raced with a delete
		}
		rev, _ := t.c.store.Rev(id)
		out = append(out, []sqldb.Value{
			sqldb.Text(info.ID),
			sqldb.Int(int64(info.Records)),
			sqldb.Int(rev),
			sqldb.Text(info.Created.UTC().Format(time.RFC3339)),
		})
	}
	return capped(out, limit, "datasets")
}

// --- records ----------------------------------------------------------

type recordsTable struct{ c *sqlCatalog }

func (t *recordsTable) Columns() []sqldb.ColumnDef {
	return []sqldb.ColumnDef{
		{Name: "dataset", Type: sqldb.TypeText},
		{Name: "rid", Type: sqldb.TypeInt},
		{Name: "record", Type: sqldb.TypeText},
		{Name: "block_key", Type: sqldb.TypeText},
	}
}

func (t *recordsTable) Rows(ctx context.Context, push []sqldb.Pushdown, limit int) ([][]sqldb.Value, error) {
	var out [][]sqldb.Value
	for _, id := range t.c.datasetIDs(push) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		records, rids, _, err := t.c.store.SnapshotFull(id)
		if err != nil {
			continue
		}
		for i, rec := range records {
			out = append(out, []sqldb.Value{
				sqldb.Text(id),
				sqldb.Int(rids[i]),
				sqldb.Text(strutil.JoinFields(rec)),
				textOrNull(blockKeyOf(rec)),
			})
		}
		if _, err := capped(out, limit, "records"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- dup_groups -------------------------------------------------------

type dupGroupsTable struct{ c *sqlCatalog }

func (t *dupGroupsTable) Columns() []sqldb.ColumnDef {
	return []sqldb.ColumnDef{
		{Name: "dataset", Type: sqldb.TypeText},
		{Name: "rid", Type: sqldb.TypeInt},
		{Name: "record", Type: sqldb.TypeText},
		{Name: "group_id", Type: sqldb.TypeInt},
		{Name: "group_size", Type: sqldb.TypeInt},
		{Name: "diameter", Type: sqldb.TypeFloat},
		{Name: "is_rep", Type: sqldb.TypeBool},
	}
}

func (t *dupGroupsTable) Rows(ctx context.Context, push []sqldb.Pushdown, limit int) ([][]sqldb.Value, error) {
	var out [][]sqldb.Value
	for _, id := range t.c.datasetIDs(push) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pub := t.c.engine.snaps.current(id)
		if pub == nil {
			continue // no committed solve yet: no rows, not an error
		}
		out = appendRows(out, pub.groupRows(false))
		if _, err := capped(out, limit, "dup_groups"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groupRows returns the publication's partition as SQL rows (see
// partitionRows). Each set is built on its first read.
func (p *published) groupRows(blockKey bool) [][]sqldb.Value {
	l := &p.groups
	if blockKey {
		l = &p.dedup
	}
	rows, _ := l.get(func() ([][]sqldb.Value, error) { // never fails
		return partitionRows(p.snap, blockKey), nil
	})
	return rows
}

// partition is a solved partition as partitionRows reads it: a published
// querysnap.Snapshot, or a restricted DEDUP()'s solve (restrictedSolve).
type partition interface {
	Dataset() string
	Groups() int
	Members(gi int) []int
	RepIndex(gi int) int
	RID(idx int) int64
	Key(idx int) string
	Distance(i, j int) float64
}

// partitionRows renders a partition as SQL rows, one per record in group
// order: with blockKey the DEDUP() columns, without it the dup_groups
// columns, which are the same minus block_key.
func partitionRows(p partition, blockKey bool) [][]sqldb.Value {
	var out [][]sqldb.Value
	for gi := 0; gi < p.Groups(); gi++ {
		members := p.Members(gi)
		gid := sqldb.Int(minRID(members, p.RID))
		size := sqldb.Int(int64(len(members)))
		diam := sqldb.Float(groupDiameter(members, p.Distance))
		rep := p.RepIndex(gi)
		for _, idx := range members {
			key := p.Key(idx)
			row := make([]sqldb.Value, 0, 8)
			row = append(row, sqldb.Text(p.Dataset()), sqldb.Int(p.RID(idx)), sqldb.Text(key))
			if blockKey {
				row = append(row, textOrNull(firstKeyString(key)))
			}
			out = append(out, append(row, gid, size, diam, sqldb.Bool(idx == rep)))
		}
	}
	return out
}

// minRID returns the smallest rid among the member indexes — the stable
// group label shared by the snapshot, job, and restricted-solve paths.
func minRID(members []int, rid func(int) int64) int64 {
	min := rid(members[0])
	for _, idx := range members[1:] {
		if r := rid(idx); r < min {
			min = r
		}
	}
	return min
}

// groupDiameter is the maximum pairwise distance within a group. Group
// sizes are cut-bounded (K, or small by construction under θ), so the
// quadratic scan stays cheap.
func groupDiameter(members []int, dist func(i, j int) float64) float64 {
	var diam float64
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if d := dist(members[i], members[j]); d > diam {
				diam = d
			}
		}
	}
	return diam
}

// --- nn_reln ----------------------------------------------------------

type nnRelnTable struct{ c *sqlCatalog }

func (t *nnRelnTable) Columns() []sqldb.ColumnDef {
	return []sqldb.ColumnDef{
		{Name: "dataset", Type: sqldb.TypeText},
		{Name: "rid", Type: sqldb.TypeInt},
		{Name: "rank", Type: sqldb.TypeInt},
		{Name: "neighbor_rid", Type: sqldb.TypeInt},
		{Name: "distance", Type: sqldb.TypeFloat},
		{Name: "ng", Type: sqldb.TypeInt},
	}
}

func (t *nnRelnTable) Rows(ctx context.Context, push []sqldb.Pushdown, limit int) ([][]sqldb.Value, error) {
	var out [][]sqldb.Value
	for _, id := range t.c.datasetIDs(push) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pub := t.c.engine.snaps.current(id)
		if pub == nil {
			continue
		}
		rows, err := pub.nnRelnRows(ctx)
		if err != nil {
			return nil, err
		}
		out = appendRows(out, rows)
		if _, err := capped(out, limit, "nn_reln"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nnRelnRows returns (building on first read) the phase-1 NN relation
// of the publication's solve: for each record, its nearest-neighbor list
// under the solved cut, in ascending (distance, rid) order, plus its
// neighborhood growth ng(v). Phase 1 is recomputed over the snapshot's
// own records with the solve key's metric, cut and p, and always with
// the exact index: for a job that solved with an approximate index this
// is the exact relation, not the one the job read.
func (p *published) nnRelnRows(ctx context.Context) ([][]sqldb.Value, error) {
	return p.nn.get(func() ([][]sqldb.Value, error) {
		snap := p.snap
		keys := make([]string, snap.Len())
		for i := range keys {
			keys[i] = snap.Key(i)
		}
		metric, err := distance.ByName(p.key.Metric, keys)
		if err != nil {
			return nil, err
		}
		rel, err := core.ComputeNN(nnindex.NewExact(keys, metric), p.key.cut(), p.key.P, core.Phase1Options{Ctx: ctx})
		if err != nil {
			return nil, err
		}
		rows := make([][]sqldb.Value, 0, len(rel.Rows))
		for i, row := range rel.Rows {
			for rank, nb := range row.NNList {
				rows = append(rows, []sqldb.Value{
					sqldb.Text(snap.Dataset()),
					sqldb.Int(snap.RID(i)),
					sqldb.Int(int64(rank + 1)),
					sqldb.Int(snap.RID(nb.ID)),
					sqldb.Float(nb.Dist),
					sqldb.Int(int64(row.NG)),
				})
			}
		}
		return rows, nil
	})
}

// --- DEDUP() ----------------------------------------------------------

// dedupFunc is the DEDUP(dataset [, k [, theta [, c]]]) table function.
// theta 0 solves DE_S(k); k 0 with theta > 0 solves DE_D(θ); both
// positive solve the combined cut.
type dedupFunc struct{ c *sqlCatalog }

func (f *dedupFunc) Columns(args []sqldb.Value) ([]sqldb.ColumnDef, error) {
	return []sqldb.ColumnDef{
		{Name: "dataset", Type: sqldb.TypeText},
		{Name: "rid", Type: sqldb.TypeInt},
		{Name: "record", Type: sqldb.TypeText},
		{Name: "block_key", Type: sqldb.TypeText},
		{Name: "group_id", Type: sqldb.TypeInt},
		{Name: "group_size", Type: sqldb.TypeInt},
		{Name: "diameter", Type: sqldb.TypeFloat},
		{Name: "is_rep", Type: sqldb.TypeBool},
	}, nil
}

// numeric widens an INT or FLOAT value to float64.
func numeric(v sqldb.Value) (float64, bool) {
	switch v.Kind {
	case sqldb.KindInt:
		return float64(v.Int), true
	case sqldb.KindFloat:
		return v.Float, true
	}
	return 0, false
}

// dedupSpec turns DEDUP's arguments into the job spec that asks the same
// question. Unset k and c take the job spec defaults when it normalizes.
func dedupSpec(args []sqldb.Value) (JobSpec, error) {
	var spec JobSpec
	if len(args) < 1 || len(args) > 4 {
		return spec, fmt.Errorf("DEDUP wants (dataset [, k [, theta [, c]]]), got %d arguments", len(args))
	}
	if args[0].Kind != sqldb.KindText {
		return spec, fmt.Errorf("DEDUP: dataset must be TEXT")
	}
	spec.Dataset = args[0].Str
	var k int
	var theta float64
	if len(args) >= 2 {
		if args[1].Kind != sqldb.KindInt {
			return spec, fmt.Errorf("DEDUP: k must be INT")
		}
		k = int(args[1].Int)
	}
	if len(args) >= 3 {
		f, ok := numeric(args[2])
		if !ok {
			return spec, fmt.Errorf("DEDUP: theta must be numeric")
		}
		theta = f
	}
	if len(args) >= 4 {
		f, ok := numeric(args[3])
		if !ok {
			return spec, fmt.Errorf("DEDUP: c must be numeric")
		}
		spec.C = []float64{f}
	}
	if k < 0 || theta < 0 {
		return spec, fmt.Errorf("DEDUP: k and theta must be >= 0")
	}
	spec.Mode = "size"
	if k > 0 {
		spec.K = []int{k}
	}
	if theta > 0 {
		spec.Theta = []float64{theta}
		spec.Mode = "diameter"
		if k > 0 {
			spec.Mode = "both"
		}
	}
	return spec, nil
}

func (f *dedupFunc) Invoke(ctx context.Context, args []sqldb.Value, push []sqldb.Pushdown, limit int) ([][]sqldb.Value, error) {
	spec, err := dedupSpec(args)
	if err != nil {
		return nil, err
	}
	pl, err := spec.normalize()
	if err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	if _, err := f.c.store.Get(spec.Dataset); err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	key := solveKey{pl.prob, pl.points[0]}
	var rows [][]sqldb.Value
	if want, ok := pushedStrings(push, "block_key"); ok {
		rows, err = f.c.dedupRestricted(ctx, spec, key, want)
	} else {
		rows, err = f.c.dedupFull(ctx, spec, key)
	}
	if err != nil {
		return nil, err
	}
	return capped(rows, limit, "DEDUP")
}

// dedupFull answers an unrestricted DEDUP: reuse the committed snapshot
// when it was solved at the current revision for the same key, otherwise
// submit a job and block on it. Either way the rows come from a
// published snapshot, so a SQL client and a REST client asking the same
// question read the same bytes.
func (c *sqlCatalog) dedupFull(ctx context.Context, spec JobSpec, key solveKey) ([][]sqldb.Value, error) {
	rev, err := c.store.Rev(spec.Dataset)
	if err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	pub := c.engine.snaps.current(spec.Dataset)
	if pub == nil || pub.snap.Rev() != rev || pub.key != key {
		if pub, err = c.solveViaJob(ctx, spec); err != nil {
			return nil, err
		}
	}
	return pub.groupRows(true), nil
}

// solveViaJob submits the DEDUP spec as a regular batch job and waits
// for it, returning the publication it made. The job path — queueing,
// durability, metrics, tracing — is shared with REST clients; SQL adds
// only the blocking wait.
func (c *sqlCatalog) solveViaJob(ctx context.Context, spec JobSpec) (*published, error) {
	st, err := c.engine.Submit(spec, "sql-dedup")
	if err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !st.State.terminal() {
		select {
		case <-ctx.Done():
			c.engine.Cancel(st.ID)
			return nil, ctx.Err()
		case <-tick.C:
		}
		if st, err = c.engine.Status(st.ID); err != nil {
			return nil, fmt.Errorf("DEDUP: %w", err)
		}
	}
	switch st.State {
	case StateDone:
	case StateCancelled:
		return nil, fmt.Errorf("DEDUP: job %s cancelled", st.ID)
	default:
		return nil, fmt.Errorf("DEDUP: job %s failed: %s", st.ID, st.Error)
	}
	// The snapshot publishes before done becomes observable, so it is
	// here — unless an even fresher job overwrote it meanwhile, in which
	// case the newest committed state is still the right answer.
	pub := c.engine.snaps.current(spec.Dataset)
	if pub == nil {
		return nil, fmt.Errorf("DEDUP: job %s finished but published no snapshot", st.ID)
	}
	return pub, nil
}

// restrictedSolve is a restricted DEDUP()'s blocked solve as the
// partition partitionRows reads.
type restrictedSolve struct {
	*fuzzydup.Deduper
	dataset string
	groups  fuzzydup.Groups
	rids    []int64
	keys    []string
}

func (r *restrictedSolve) Dataset() string      { return r.dataset }
func (r *restrictedSolve) Groups() int          { return len(r.groups) }
func (r *restrictedSolve) Members(gi int) []int { return r.groups[gi] }
func (r *restrictedSolve) RepIndex(gi int) int  { return r.Representative(r.groups[gi]) }
func (r *restrictedSolve) RID(idx int) int64    { return r.rids[idx] }
func (r *restrictedSolve) Key(idx int) string   { return r.keys[idx] }

// dedupRestricted answers DEDUP under a block_key pushdown: a blocked
// solve restricted to the blocks containing the selected keys. The
// boundary guard still certifies those blocks against the whole corpus,
// so every returned group is identical to the unrestricted partition's
// — the executor's predicate re-check then trims the block's other
// members. Results are cached per (dataset, rev, solve key, keys).
func (c *sqlCatalog) dedupRestricted(ctx context.Context, spec JobSpec, key solveKey, want map[string]bool) ([][]sqldb.Value, error) {
	records, rids, rev, err := c.store.SnapshotFull(spec.Dataset)
	if err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	fp := restrictedFingerprint(spec.Dataset, rev, key, want)
	c.mu.Lock()
	if rows, ok := c.dedupCache[fp]; ok {
		c.mu.Unlock()
		return rows, nil
	}
	c.mu.Unlock()

	keys := make([]string, len(records))
	for i, rec := range records {
		keys[i] = strutil.JoinFields(rec)
	}
	opts := spec.options(solveBlocked)
	opts.Blocking.Restrict = func(id int) bool {
		bk := firstKeyString(keys[id])
		return bk != "" && want[bk]
	}
	opts.Blocking.OnBlockSolved = c.engine.metrics.observeBlock
	d, err := fuzzydup.New(records, opts)
	if err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	groups, err := d.GroupsBySizeAndDiameterCtx(ctx, key.K, key.Theta, key.C)
	if err != nil {
		return nil, fmt.Errorf("DEDUP: %w", err)
	}
	rep := d.LastReport()
	c.engine.metrics.blocksSolved.Add(int64(rep.BlocksSolved))
	c.engine.metrics.boundaryResolves.Add(int64(rep.BoundaryResolves))
	c.engine.metrics.distanceCalls.Add(rep.DistanceCalls)

	rows := partitionRows(&restrictedSolve{Deduper: d, dataset: spec.Dataset, groups: groups, rids: rids, keys: keys}, true)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.store.Get(spec.Dataset); err != nil {
		return rows, nil // deleted mid-solve: forget already ran, keep nothing
	}
	if len(c.dedupCache) >= maxDedupCacheEntries {
		c.dedupCache = make(map[string][][]sqldb.Value)
	}
	c.dedupCache[fp] = rows
	return rows, nil
}

func restrictedFingerprint(dataset string, rev int64, key solveKey, want map[string]bool) string {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%s|%d|%v|%s", dataset, rev, key, strings.Join(keys, "\x00"))
}
