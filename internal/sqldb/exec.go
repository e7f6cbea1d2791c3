package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"fuzzydup/internal/buffer"
	"fuzzydup/internal/storage"
)

// ScalarFunc is a user-registered scalar function. Arity < 0 accepts any
// number of arguments.
type ScalarFunc struct {
	Arity int
	Fn    func(args []Value) (Value, error)
}

// DB is an embedded relational database: a catalog of heap tables over an
// accounting disk and buffer pool, plus registered scalar functions.
// It is not safe for concurrent use.
type DB struct {
	disk   *storage.Disk
	pool   *buffer.Pool
	tables map[string]*Table
	funcs  map[string]ScalarFunc

	// SortSpillThreshold is the result size (rows) above which ORDER BY
	// switches from in-memory sorting to the external merge sort. Zero
	// selects the default (16384). Exposed mainly so tests can force the
	// external path.
	SortSpillThreshold int

	// Catalog, when non-nil, resolves names the physical table map does
	// not: virtual tables (physical tables shadow them) and table
	// functions in FROM clauses.
	Catalog Catalog
	// MaxRows, when > 0, bounds every materialized row set of a SELECT —
	// virtual-source output, join intermediates, and the final result.
	// Exceeding it fails the query with an ErrMaxRows-wrapped error; the
	// cap is what keeps an unbounded `SELECT * FROM nn_reln` from
	// exhausting a wire connection's memory.
	MaxRows int
}

func (db *DB) sortSpillThreshold() int {
	if db.SortSpillThreshold > 0 {
		return db.SortSpillThreshold
	}
	return defaultSortSpillThreshold
}

// DefaultPoolFrames is the default buffer pool size in pages.
const DefaultPoolFrames = 1024

// Open returns an empty database with the default buffer pool.
func Open() *DB { return OpenWithPool(DefaultPoolFrames) }

// OpenWithPool returns an empty database whose buffer pool has the given
// number of frames.
func OpenWithPool(frames int) *DB {
	disk := storage.NewDisk()
	return &DB{
		disk:   disk,
		pool:   buffer.NewPool(disk, frames),
		tables: make(map[string]*Table),
		funcs:  make(map[string]ScalarFunc),
	}
}

// Pool exposes the buffer pool for instrumentation.
func (db *DB) Pool() *buffer.Pool { return db.pool }

// RegisterFunc installs a scalar function callable from SQL (names are
// case-insensitive). Registered functions shadow nothing: built-ins win.
func (db *DB) RegisterFunc(name string, arity int, fn func(args []Value) (Value, error)) {
	db.funcs[strings.ToUpper(name)] = ScalarFunc{Arity: arity, Fn: fn}
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Result is the outcome of Exec: column names and rows for queries, or an
// affected-row count for DML/DDL.
type Result struct {
	Cols     []string
	Rows     [][]Value
	Affected int
}

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecContext(context.Background(), sql)
}

// ExecContext is Exec with a context: virtual tables and table
// functions receive it (a long DEDUP() solve is cancellable), and the
// SELECT pipeline checks it between phases.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return db.execCreate(s)
	case *CreateIndexStmt:
		return db.execCreateIndex(s)
	case *DropTableStmt:
		return db.execDrop(s)
	case *InsertStmt:
		return db.execInsert(s)
	case *SelectStmt:
		return db.execSelect(ctx, s)
	case *UpdateStmt:
		return db.execUpdate(s)
	case *DeleteStmt:
		return db.execDelete(s)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

func (db *DB) execCreate(s *CreateTableStmt) (*Result, error) {
	return db.createTable(s.Name, s.Columns)
}

func (db *DB) createTable(name string, cols []ColumnDef) (*Result, error) {
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; ok {
		return nil, fmt.Errorf("sqldb: table %s already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %s needs at least one column", name)
	}
	seen := make(map[string]bool)
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("sqldb: duplicate column %s", c.Name)
		}
		seen[lc] = true
	}
	first := db.disk.Alloc()
	pageBuf, err := db.pool.Get(first)
	if err != nil {
		return nil, err
	}
	storage.NewSlotted(pageBuf).Init()
	db.pool.MarkDirty(first)
	db.tables[key] = &Table{Name: name, Columns: cols, first: first, last: first}
	return &Result{}, nil
}

func (db *DB) execCreateIndex(s *CreateIndexStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	col := t.colIndex(s.Column)
	if col < 0 {
		return nil, fmt.Errorf("sqldb: table %s has no column %s", s.Table, s.Column)
	}
	for _, ix := range t.indexes {
		if strings.EqualFold(ix.name, s.Name) {
			return nil, fmt.Errorf("sqldb: index %s already exists on %s", s.Name, s.Table)
		}
	}
	ix := &hashIndex{name: s.Name, col: col, m: make(map[string][]rowRef)}
	if err := t.buildIndex(db.pool, ix); err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, ix)
	return &Result{}, nil
}

func (db *DB) execDrop(s *DropTableStmt) (*Result, error) {
	key := strings.ToLower(s.Name)
	if _, ok := db.tables[key]; !ok {
		return nil, fmt.Errorf("sqldb: table %s does not exist", s.Name)
	}
	// Pages are abandoned on the disk; the engine has no free list. That
	// is acceptable for an in-memory reproduction database.
	delete(db.tables, key)
	return &Result{}, nil
}

func (db *DB) execInsert(s *InsertStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	ctx := evalCtx{db: db, schema: &schema{}}
	n := 0
	for _, rowExprs := range s.Rows {
		vals := make([]Value, len(rowExprs))
		for i, e := range rowExprs {
			v, err := ctx.eval(e)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := t.insertRow(db.disk, db.pool, vals); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// Insert appends a row of Go values to a table without SQL parsing — the
// bulk-loading path phase 1 uses to materialize NN_Reln.
func (db *DB) Insert(table string, vals ...Value) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("sqldb: table %s does not exist", table)
	}
	return t.insertRow(db.disk, db.pool, vals)
}

// CreateTable creates a table programmatically (same as CREATE TABLE).
func (db *DB) CreateTable(name string, cols []ColumnDef) error {
	_, err := db.createTable(name, cols)
	return err
}

// pointPredicate recognizes `col = literal` (either orientation) and
// returns its parts, or nils.
func pointPredicate(c Expr) (*ColumnRef, *Literal) {
	b, ok := c.(*BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil
	}
	if ref, ok := b.L.(*ColumnRef); ok {
		if lit, ok := b.R.(*Literal); ok {
			return ref, lit
		}
	}
	if ref, ok := b.R.(*ColumnRef); ok {
		if lit, ok := b.L.(*Literal); ok {
			return ref, lit
		}
	}
	return nil, nil
}

// resolveUniqueBinding returns the index of the single binding defining
// the column name, or -1 when absent or ambiguous.
func resolveUniqueBinding(sch *schema, column string) int {
	found := -1
	for bi, b := range sch.bindings {
		for _, name := range b.cols {
			if strings.EqualFold(name, column) {
				if found >= 0 && found != bi {
					return -1
				}
				found = bi
			}
		}
	}
	return found
}

// tableCtx builds a single-table evaluation schema for UPDATE/DELETE
// predicates.
func tableCtx(db *DB, t *Table) (*schema, *evalCtx) {
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	sch := &schema{bindings: []binding{{alias: t.Name, cols: cols}}, width: len(cols)}
	return sch, &evalCtx{db: db, schema: sch}
}

// execUpdate rewrites matching rows (copy-compact semantics).
func (db *DB) execUpdate(s *UpdateStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	// Resolve target columns up front.
	targets := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		ci := t.colIndex(set.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sqldb: table %s has no column %s", s.Table, set.Column)
		}
		targets[i] = ci
	}
	_, ctx := tableCtx(db, t)
	var rows [][]Value
	changed := 0
	err := t.scan(db.pool, func(vals []Value) (bool, error) {
		row := append([]Value(nil), vals...)
		ctx.row = row
		match := true
		if s.Where != nil {
			v, err := ctx.eval(s.Where)
			if err != nil {
				return false, err
			}
			match = truthy(v)
		}
		if match {
			for i, set := range s.Sets {
				nv, err := ctx.eval(set.Value)
				if err != nil {
					return false, err
				}
				cv, err := t.Columns[targets[i]].Type.coerce(nv)
				if err != nil {
					return false, err
				}
				row[targets[i]] = cv
			}
			changed++
		}
		rows = append(rows, row)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if err := t.replaceRows(db.disk, db.pool, rows); err != nil {
		return nil, err
	}
	return &Result{Affected: changed}, nil
}

// execDelete removes matching rows (copy-compact semantics).
func (db *DB) execDelete(s *DeleteStmt) (*Result, error) {
	t, ok := db.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqldb: table %s does not exist", s.Table)
	}
	_, ctx := tableCtx(db, t)
	var kept [][]Value
	removed := 0
	err := t.scan(db.pool, func(vals []Value) (bool, error) {
		row := append([]Value(nil), vals...)
		ctx.row = row
		match := true
		if s.Where != nil {
			v, err := ctx.eval(s.Where)
			if err != nil {
				return false, err
			}
			match = truthy(v)
		}
		if match {
			removed++
		} else {
			kept = append(kept, row)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if err := t.replaceRows(db.disk, db.pool, kept); err != nil {
		return nil, err
	}
	return &Result{Affected: removed}, nil
}

// execSelect runs the SELECT pipeline: join, filter, group, project,
// dedup, sort, limit, and optionally SELECT INTO.
func (db *DB) execSelect(ctx context.Context, s *SelectStmt) (*Result, error) {
	// Resolve the FROM sources (comma list plus INNER JOINs): physical
	// tables first, then catalog virtual tables and table functions.
	type source struct {
		ref  TableRef
		on   Expr // nil for comma-list sources
		t    *Table
		vt   VirtualTable
		tf   TableFunc
		args []Value     // evaluated table-function arguments
		cols []ColumnDef // declared schema, whichever kind
	}
	var sources []source
	for _, ref := range s.From {
		sources = append(sources, source{ref: ref})
	}
	for _, j := range s.Joins {
		sources = append(sources, source{ref: j.Ref, on: j.On})
	}

	// Full schema (for resolving conjunct alias sets).
	full := &schema{}
	for i := range sources {
		src := &sources[i]
		switch {
		case src.ref.IsFunc:
			if db.Catalog != nil {
				if tf, ok := db.Catalog.TableFunc(src.ref.Table); ok {
					args, err := db.constArgs(src.ref.Args)
					if err != nil {
						return nil, err
					}
					cols, err := tf.Columns(args)
					if err != nil {
						return nil, err
					}
					src.tf, src.args, src.cols = tf, args, cols
				}
			}
			if src.tf == nil {
				return nil, fmt.Errorf("sqldb: table function %s does not exist", src.ref.Table)
			}
		default:
			if t, ok := db.Table(src.ref.Table); ok {
				src.t, src.cols = t, t.Columns
			} else if db.Catalog != nil {
				if vt, ok := db.Catalog.VirtualTable(src.ref.Table); ok {
					src.vt, src.cols = vt, vt.Columns()
				}
			}
			if src.t == nil && src.vt == nil {
				return nil, fmt.Errorf("sqldb: table %s does not exist", src.ref.Table)
			}
		}
		cols := make([]string, len(src.cols))
		for ci, c := range src.cols {
			cols[ci] = c.Name
		}
		full.bindings = append(full.bindings, binding{alias: src.ref.Alias, cols: cols, off: full.width})
		full.width += len(cols)
	}

	// Conjunct pool: WHERE plus all ON conditions.
	var conjuncts []Expr
	conjuncts = append(conjuncts, splitConjuncts(s.Where)...)
	for _, src := range sources {
		if src.on != nil {
			conjuncts = append(conjuncts, splitConjuncts(src.on)...)
		}
	}
	applied := make([]bool, len(conjuncts))

	// Incrementally join sources left to right.
	acc := [][]Value{}
	accSchema := &schema{}
	accAliases := map[string]bool{}

	applyReady := func(rows [][]Value) ([][]Value, error) {
		ctx := evalCtx{db: db, schema: accSchema}
		for ci, c := range conjuncts {
			if applied[ci] {
				continue
			}
			refs := map[string]bool{}
			refAliases(c, full, refs)
			ready := true
			for a := range refs {
				if !accAliases[a] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			applied[ci] = true
			var kept [][]Value
			for _, row := range rows {
				ctx.row = row
				v, err := ctx.eval(c)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		return rows, nil
	}

	for i := range sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Materialize the new source's rows. Physical tables go through a
		// hash index when an unapplied point predicate (col = literal)
		// targets an indexed column, else a full scan. Virtual sources
		// receive the advisory pushdowns and the row cap.
		var newRows [][]Value
		usedIndex := false
		if t := sources[i].t; t != nil {
			for ci, c := range conjuncts {
				if applied[ci] {
					continue
				}
				ref, lit := pointPredicate(c)
				if ref == nil {
					continue
				}
				if ref.Table != "" && !strings.EqualFold(ref.Table, full.bindings[i].alias) {
					continue
				}
				col := t.colIndex(ref.Column)
				if col < 0 {
					continue
				}
				if ref.Table == "" && resolveUniqueBinding(full, ref.Column) != i {
					continue // ambiguous or belonging to another source
				}
				ix := t.indexOn(col)
				if ix == nil {
					continue
				}
				rows, err := t.lookupIndex(db.pool, ix, lit.Val)
				if err != nil {
					return nil, err
				}
				newRows = rows
				applied[ci] = true
				usedIndex = true
				break
			}
			if !usedIndex {
				if err := t.scan(db.pool, func(vals []Value) (bool, error) {
					row := make([]Value, len(vals))
					copy(row, vals)
					newRows = append(newRows, row)
					return true, nil
				}); err != nil {
					return nil, err
				}
			}
		} else {
			push := pushdownsFor(conjuncts, applied, full, i, sources[i].cols)
			var rows [][]Value
			var err error
			if sources[i].tf != nil {
				rows, err = sources[i].tf.Invoke(ctx, sources[i].args, push, db.MaxRows)
			} else {
				rows, err = sources[i].vt.Rows(ctx, push, db.MaxRows)
			}
			if err != nil {
				return nil, err
			}
			if newRows, err = coerceVirtualRows(sources[i].ref.Table, sources[i].cols, rows); err != nil {
				return nil, err
			}
		}
		if err := db.capRows(len(newRows), sources[i].ref.Table); err != nil {
			return nil, err
		}
		newBinding := full.bindings[i]
		newSchema := &schema{bindings: []binding{{alias: newBinding.alias, cols: newBinding.cols, off: 0}}, width: len(newBinding.cols)}

		if i == 0 {
			acc = newRows
			accSchema = &schema{bindings: []binding{full.bindings[0]}, width: len(newBinding.cols)}
			accAliases[strings.ToLower(newBinding.alias)] = true
			var err error
			acc, err = applyReady(acc)
			if err != nil {
				return nil, err
			}
			continue
		}

		// Look for equi-conjuncts linking acc to the new table.
		var accKeys, newKeys []Expr
		for ci, c := range conjuncts {
			if applied[ci] {
				continue
			}
			b, ok := c.(*BinaryExpr)
			if !ok || b.Op != "=" {
				continue
			}
			lRefs, rRefs := map[string]bool{}, map[string]bool{}
			refAliases(b.L, full, lRefs)
			refAliases(b.R, full, rRefs)
			newAlias := strings.ToLower(newBinding.alias)
			onlyAcc := func(m map[string]bool) bool {
				if len(m) == 0 {
					return false
				}
				for a := range m {
					if !accAliases[a] {
						return false
					}
				}
				return true
			}
			onlyNew := func(m map[string]bool) bool {
				if len(m) == 0 {
					return false
				}
				for a := range m {
					if a != newAlias {
						return false
					}
				}
				return true
			}
			switch {
			case onlyAcc(lRefs) && onlyNew(rRefs):
				accKeys = append(accKeys, b.L)
				newKeys = append(newKeys, b.R)
				applied[ci] = true
			case onlyNew(lRefs) && onlyAcc(rRefs):
				accKeys = append(accKeys, b.R)
				newKeys = append(newKeys, b.L)
				applied[ci] = true
			}
		}

		var joined [][]Value
		if len(accKeys) > 0 {
			// Hash join: build on the new table, probe with acc.
			build := make(map[string][][]Value)
			nctx := evalCtx{db: db, schema: newSchema}
			for _, row := range newRows {
				nctx.row = row
				key, hasNull, err := encodeKey(&nctx, newKeys)
				if err != nil {
					return nil, err
				}
				if hasNull {
					continue // NULL keys never join
				}
				build[key] = append(build[key], row)
			}
			actx := evalCtx{db: db, schema: accSchema}
			for _, arow := range acc {
				actx.row = arow
				key, hasNull, err := encodeKey(&actx, accKeys)
				if err != nil {
					return nil, err
				}
				if hasNull {
					continue
				}
				for _, nrow := range build[key] {
					combined := make([]Value, 0, len(arow)+len(nrow))
					combined = append(combined, arow...)
					combined = append(combined, nrow...)
					joined = append(joined, combined)
					if err := db.capRows(len(joined), "join"); err != nil {
						return nil, err
					}
				}
			}
		} else {
			// Nested-loop product.
			for _, arow := range acc {
				for _, nrow := range newRows {
					combined := make([]Value, 0, len(arow)+len(nrow))
					combined = append(combined, arow...)
					combined = append(combined, nrow...)
					joined = append(joined, combined)
					if err := db.capRows(len(joined), "join"); err != nil {
						return nil, err
					}
				}
			}
		}
		accSchema = &schema{
			bindings: append(append([]binding(nil), accSchema.bindings...),
				binding{alias: newBinding.alias, cols: newBinding.cols, off: accSchema.width}),
			width: accSchema.width + len(newBinding.cols),
		}
		accAliases[strings.ToLower(newBinding.alias)] = true
		acc = joined
		var err error
		acc, err = applyReady(acc)
		if err != nil {
			return nil, err
		}
	}

	// Safety net: any conjunct not applied is a bug in alias analysis.
	for ci := range conjuncts {
		if !applied[ci] {
			rows, err := applyReady(acc)
			if err != nil {
				return nil, err
			}
			acc = rows
			break
		}
	}

	// Projection list.
	items := s.Items
	var cols []string
	if s.Star {
		items = nil
		for _, b := range accSchema.bindings {
			for _, c := range b.cols {
				ref := &ColumnRef{Table: b.alias, Column: c}
				items = append(items, SelectItem{Expr: ref, Alias: c})
			}
		}
	}
	for i, item := range items {
		name := item.Alias
		if name == "" {
			if ref, ok := item.Expr.(*ColumnRef); ok {
				name = ref.Column
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		cols = append(cols, name)
	}

	aggregated := len(s.GroupBy) > 0 || s.Having != nil
	for _, item := range items {
		if containsAggregate(item.Expr) {
			aggregated = true
		}
	}

	type outRow struct {
		vals []Value
		keys []Value // ORDER BY keys
	}
	var out []outRow

	evalItems := func(ctx *evalCtx) ([]Value, error) {
		vals := make([]Value, len(items))
		for i, item := range items {
			v, err := ctx.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}

	evalOrderKeys := func(ctx *evalCtx, projected []Value) ([]Value, error) {
		keys := make([]Value, len(s.OrderBy))
		for i, k := range s.OrderBy {
			// An unqualified reference to an output alias sorts by the
			// projected value.
			if ref, ok := k.Expr.(*ColumnRef); ok && ref.Table == "" {
				found := -1
				for ci, name := range cols {
					if strings.EqualFold(name, ref.Column) {
						found = ci
					}
				}
				if found >= 0 {
					keys[i] = projected[found]
					continue
				}
			}
			v, err := ctx.eval(k.Expr)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		return keys, nil
	}

	if aggregated {
		// Hash grouping by the GROUP BY key exprs (a single group when
		// absent).
		groups := make(map[string][][]Value)
		var order []string
		gctx := evalCtx{db: db, schema: accSchema}
		for _, row := range acc {
			gctx.row = row
			key := ""
			if len(s.GroupBy) > 0 {
				k, _, err := encodeKey(&gctx, s.GroupBy)
				if err != nil {
					return nil, err
				}
				key = k
			}
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], row)
		}
		if len(s.GroupBy) == 0 && len(order) == 0 {
			// Aggregates over an empty relation still produce one row
			// (COUNT(*) = 0); the group must be non-nil so the evaluator
			// knows it is in aggregate context.
			order = append(order, "")
			groups[""] = [][]Value{}
		}
		for _, key := range order {
			rows := groups[key]
			ctx := evalCtx{db: db, schema: accSchema, group: rows}
			if len(rows) > 0 {
				ctx.row = rows[0]
			} else {
				ctx.row = make([]Value, accSchema.width)
			}
			if s.Having != nil {
				hv, err := ctx.eval(s.Having)
				if err != nil {
					return nil, err
				}
				if !truthy(hv) {
					continue
				}
			}
			vals, err := evalItems(&ctx)
			if err != nil {
				return nil, err
			}
			keys, err := evalOrderKeys(&ctx, vals)
			if err != nil {
				return nil, err
			}
			out = append(out, outRow{vals: vals, keys: keys})
		}
	} else {
		ctx := evalCtx{db: db, schema: accSchema}
		for _, row := range acc {
			ctx.row = row
			vals, err := evalItems(&ctx)
			if err != nil {
				return nil, err
			}
			keys, err := evalOrderKeys(&ctx, vals)
			if err != nil {
				return nil, err
			}
			out = append(out, outRow{vals: vals, keys: keys})
		}
	}

	if s.Distinct {
		seen := make(map[string]bool)
		var dedup []outRow
		for _, r := range out {
			k := string(encodeRow(r.vals))
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		out = dedup
	}

	if len(s.OrderBy) > 0 {
		var sortErr error
		keyLess := func(a, b []Value) bool {
			for k, key := range s.OrderBy {
				c, err := Compare(a[k], b[k])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c != 0 {
					if key.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		}
		threshold := db.sortSpillThreshold()
		if len(out) > threshold {
			// External merge sort: spill sorted runs of combined
			// (keys ++ vals) rows and k-way merge them back.
			width := len(s.OrderBy) + len(cols)
			combined := make([][]Value, len(out))
			for i, r := range out {
				row := make([]Value, 0, width)
				row = append(row, r.keys...)
				row = append(row, r.vals...)
				combined[i] = row
			}
			sorted, err := db.externalSort(combined, width, threshold, keyLess)
			if err != nil {
				return nil, err
			}
			if sortErr != nil {
				return nil, sortErr
			}
			for i, row := range sorted {
				out[i] = outRow{keys: row[:len(s.OrderBy)], vals: row[len(s.OrderBy):]}
			}
		} else {
			sort.SliceStable(out, func(i, j int) bool { return keyLess(out[i].keys, out[j].keys) })
			if sortErr != nil {
				return nil, sortErr
			}
		}
	}

	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}

	res := &Result{Cols: cols}
	for _, r := range out {
		res.Rows = append(res.Rows, r.vals)
	}
	if err := db.capRows(len(res.Rows), "result"); err != nil {
		return nil, err
	}

	if s.Into != "" {
		if err := db.selectInto(s.Into, res); err != nil {
			return nil, err
		}
		return &Result{Affected: len(res.Rows)}, nil
	}
	return res, nil
}

// selectInto creates a table from a result set, inferring column types
// from the first non-null value of each column (TEXT when all null).
func (db *DB) selectInto(name string, res *Result) error {
	cols := make([]ColumnDef, len(res.Cols))
	for i, c := range res.Cols {
		typ := TypeText
		for _, row := range res.Rows {
			switch row[i].Kind {
			case KindInt:
				typ = TypeInt
			case KindFloat:
				typ = TypeFloat
			case KindText:
				typ = TypeText
			case KindBool:
				typ = TypeBool
			default:
				continue
			}
			break
		}
		cols[i] = ColumnDef{Name: c, Type: typ}
	}
	if err := db.CreateTable(name, cols); err != nil {
		return err
	}
	t, _ := db.Table(name)
	for _, row := range res.Rows {
		if err := t.insertRow(db.disk, db.pool, row); err != nil {
			return err
		}
	}
	return nil
}

// encodeKey serializes the values of key expressions for hash lookup and
// reports whether any component was NULL. Join callers skip rows with NULL
// keys (NULL = NULL is not true); GROUP BY callers keep them (NULLs group
// together), relying on the NULL kind byte in the encoding.
func encodeKey(ctx *evalCtx, keys []Expr) (key string, hasNull bool, err error) {
	vals := make([]Value, len(keys))
	for i, k := range keys {
		v, err := ctx.eval(k)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			hasNull = true
		}
		vals[i] = v
	}
	// Normalize numerics so 1 and 1.0 hash identically.
	for i, v := range vals {
		if v.Kind == KindInt {
			vals[i] = Float(float64(v.Int))
		}
	}
	return string(encodeRow(vals)), hasNull, nil
}
