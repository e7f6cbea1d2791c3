package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrMaxRows is wrapped by every row-cap violation (see DB.MaxRows).
// The wire layer matches it with errors.Is to emit the dedicated
// max_rows_exceeded ERR packet instead of a generic failure.
var ErrMaxRows = errors.New("max_rows_exceeded")

// Pushdown is an advisory restriction handed to a virtual source: the
// named column is known to be constrained to exactly these values
// (one value for an equality predicate, several for an IN list). An
// implementation may use it to produce fewer rows — or ignore it
// entirely. Correctness never depends on it: the executor re-applies
// the originating predicate to whatever comes back, so a pushdown
// target must only ever return a SUPERSET of the matching rows, never
// unrelated extras it claims were filtered.
type Pushdown struct {
	Column string
	Values []Value
}

// VirtualTable exposes non-heap data — live server state, computed
// relations — as a table the executor can scan and join. Rows is called
// once per query referencing the table; push carries the advisory
// pushdowns extracted from the WHERE clause, and limit (when > 0) is
// the server row cap: producing more than limit rows is an error
// anyway, so implementations should stop early and may return
// ErrMaxRows-wrapped errors themselves for a better message.
//
// The returned rows may be shared: an implementation can hand the same
// slices to every query and every DB, and the executor never writes
// them (neither the outer slice nor any row).
type VirtualTable interface {
	Columns() []ColumnDef
	Rows(ctx context.Context, push []Pushdown, limit int) ([][]Value, error)
}

// TableFunc is a parameterized virtual table usable in FROM:
// SELECT ... FROM F(arg, ...). Arguments are constant expressions
// evaluated before invocation. Pushdowns, limit and the shared,
// never-written returned rows work as for VirtualTable.
type TableFunc interface {
	Columns(args []Value) ([]ColumnDef, error)
	Invoke(ctx context.Context, args []Value, push []Pushdown, limit int) ([][]Value, error)
}

// Catalog resolves names the physical table map does not: virtual
// tables (after physical tables, which shadow them) and table
// functions. Implementations must be safe for whatever concurrency the
// owner applies to the DB as a whole (the DB itself is single-threaded).
type Catalog interface {
	VirtualTable(name string) (VirtualTable, bool)
	TableFunc(name string) (TableFunc, bool)
}

// capRows enforces DB.MaxRows on a materialized row count.
func (db *DB) capRows(n int, what string) error {
	if db.MaxRows > 0 && n > db.MaxRows {
		return fmt.Errorf("%w: %s materialized %d rows, cap %d", ErrMaxRows, what, n, db.MaxRows)
	}
	return nil
}

// colDefIndex finds name in cols case-insensitively, or -1.
func colDefIndex(cols []ColumnDef, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// pushdownsFor extracts the advisory pushdowns for source i: equality
// and positive IN predicates over literals whose column reference
// resolves to this source. Conjuncts are NOT marked applied — the
// executor re-evaluates every one of them, which is what makes the
// pushdown contract purely an optimization.
func pushdownsFor(conjuncts []Expr, applied []bool, full *schema, i int, cols []ColumnDef) []Pushdown {
	var out []Pushdown
	for ci, c := range conjuncts {
		if applied[ci] {
			continue
		}
		var ref *ColumnRef
		var lits []Expr
		if r, lit := pointPredicate(c); r != nil {
			ref, lits = r, []Expr{lit}
		} else if in, ok := c.(*InExpr); ok && !in.Not {
			r, ok := in.X.(*ColumnRef)
			if !ok {
				continue
			}
			allLit := true
			for _, e := range in.List {
				if _, ok := e.(*Literal); !ok {
					allLit = false
					break
				}
			}
			if !allLit || len(in.List) == 0 {
				continue
			}
			ref, lits = r, in.List
		} else {
			continue
		}
		if ref.Table != "" {
			if !strings.EqualFold(ref.Table, full.bindings[i].alias) {
				continue
			}
		} else if resolveUniqueBinding(full, ref.Column) != i {
			continue
		}
		col := colDefIndex(cols, ref.Column)
		if col < 0 {
			continue
		}
		vals := make([]Value, len(lits))
		for vi, e := range lits {
			vals[vi] = e.(*Literal).Val
		}
		out = append(out, Pushdown{Column: cols[col].Name, Values: vals})
	}
	return out
}

// coerceVirtualRows validates shape and column types of rows a virtual
// source produced, coercing values (INT widens to FLOAT and so on) so
// downstream operators see the declared types. The source's rows may be
// shared with other sessions, so they are never written: a coercion that
// changes a value copies the outer slice and that row first, and the
// returned rows are the ones to use.
func coerceVirtualRows(name string, cols []ColumnDef, rows [][]Value) ([][]Value, error) {
	copied := false
	for ri, row := range rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("sqldb: virtual source %s returned a %d-column row, schema has %d", name, len(row), len(cols))
		}
		ownRow := false
		for ci := range row {
			v, err := cols[ci].Type.coerce(row[ci])
			if err != nil {
				return nil, fmt.Errorf("sqldb: virtual source %s column %s: %w", name, cols[ci].Name, err)
			}
			if v.Kind == row[ci].Kind {
				continue // coerce changes a value only by changing its kind
			}
			if !copied {
				rows = append([][]Value(nil), rows...)
				copied = true
			}
			if !ownRow {
				row = append([]Value(nil), row...)
				rows[ri] = row
				ownRow = true
			}
			row[ci] = v
		}
	}
	return rows, nil
}

// constArgs evaluates a table function's argument expressions, which
// must be constant (no column references — there is no row yet).
func (db *DB) constArgs(exprs []Expr) ([]Value, error) {
	ctx := evalCtx{db: db, schema: &schema{}}
	vals := make([]Value, len(exprs))
	for i, e := range exprs {
		v, err := ctx.eval(e)
		if err != nil {
			return nil, fmt.Errorf("sqldb: table function argument %d: %w", i+1, err)
		}
		vals[i] = v
	}
	return vals, nil
}
