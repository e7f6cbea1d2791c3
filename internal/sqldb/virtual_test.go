package sqldb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// fakeVT is a virtual table of (k INT, name TEXT) rows that records the
// pushdowns and limit it was offered and optionally honors the k
// pushdown.
type fakeVT struct {
	rows      [][]Value
	gotPush   []Pushdown
	gotLimit  int
	calls     int
	honorPush bool
	err       error
}

func (f *fakeVT) Columns() []ColumnDef {
	return []ColumnDef{{Name: "k", Type: TypeInt}, {Name: "name", Type: TypeText}}
}

func (f *fakeVT) Rows(ctx context.Context, push []Pushdown, limit int) ([][]Value, error) {
	f.calls++
	f.gotPush = push
	f.gotLimit = limit
	if f.err != nil {
		return nil, f.err
	}
	if !f.honorPush {
		return f.rows, nil
	}
	var out [][]Value
	for _, row := range f.rows {
		keep := true
		for _, p := range push {
			if p.Column != "k" {
				continue
			}
			hit := false
			for _, v := range p.Values {
				if eq, _ := equalSQL(row[0], v); truthy(eq) {
					hit = true
				}
			}
			keep = keep && hit
		}
		if keep {
			out = append(out, append([]Value(nil), row...))
		}
	}
	return out, nil
}

// fakeTF is a table function seq(n) yielding rows (i INT) for 1..n.
type fakeTF struct {
	gotArgs []Value
	gotPush []Pushdown
}

func (f *fakeTF) Columns(args []Value) ([]ColumnDef, error) {
	return []ColumnDef{{Name: "i", Type: TypeInt}}, nil
}

func (f *fakeTF) Invoke(ctx context.Context, args []Value, push []Pushdown, limit int) ([][]Value, error) {
	f.gotArgs = args
	f.gotPush = push
	if len(args) != 1 || args[0].Kind != KindInt {
		return nil, fmt.Errorf("seq wants one INT argument")
	}
	var out [][]Value
	for i := int64(1); i <= args[0].Int; i++ {
		out = append(out, []Value{Int(i)})
	}
	return out, nil
}

type fakeCatalog struct {
	vts map[string]VirtualTable
	tfs map[string]TableFunc
}

func (c *fakeCatalog) VirtualTable(name string) (VirtualTable, bool) {
	vt, ok := c.vts[strings.ToLower(name)]
	return vt, ok
}

func (c *fakeCatalog) TableFunc(name string) (TableFunc, bool) {
	tf, ok := c.tfs[strings.ToLower(name)]
	return tf, ok
}

func vtRows(vals ...[2]any) [][]Value {
	var out [][]Value
	for _, v := range vals {
		k := Int(int64(v[0].(int)))
		var name Value
		if v[1] == nil {
			name = Null()
		} else {
			name = Text(v[1].(string))
		}
		out = append(out, []Value{k, name})
	}
	return out
}

func TestVirtualTableScanAndFilter(t *testing.T) {
	vt := &fakeVT{rows: vtRows([2]any{1, "a"}, [2]any{2, "b"}, [2]any{3, nil})}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}

	res := mustExec(t, db, "SELECT k, name FROM vt ORDER BY k DESC")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"3|NULL", "2|b", "1|a"}) {
		t.Fatalf("rows = %v", got)
	}

	// The executor re-applies predicates even when the table ignores the
	// pushdown (honorPush false): same answer either way.
	for _, honor := range []bool{false, true} {
		vt.honorPush = honor
		res = mustExec(t, db, "SELECT name FROM vt WHERE k = 2")
		if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"b"}) {
			t.Fatalf("honor=%v rows = %v", honor, got)
		}
		if len(vt.gotPush) != 1 || vt.gotPush[0].Column != "k" || len(vt.gotPush[0].Values) != 1 {
			t.Fatalf("honor=%v pushdowns = %+v", honor, vt.gotPush)
		}
	}
}

func TestVirtualTableINPushdown(t *testing.T) {
	vt := &fakeVT{rows: vtRows([2]any{1, "a"}, [2]any{2, "b"}, [2]any{3, "c"}), honorPush: true}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	res := mustExec(t, db, "SELECT name FROM vt WHERE k IN (1, 3) ORDER BY name")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("rows = %v", got)
	}
	if len(vt.gotPush) != 1 || len(vt.gotPush[0].Values) != 2 {
		t.Fatalf("pushdowns = %+v", vt.gotPush)
	}
	// NOT IN must not push down (the complement cannot be enumerated).
	mustExec(t, db, "SELECT name FROM vt WHERE k NOT IN (1)")
	if vt.gotPush != nil {
		t.Fatalf("NOT IN produced pushdowns: %+v", vt.gotPush)
	}
}

func TestVirtualTableSupersetPushdownStaysCorrect(t *testing.T) {
	// A sloppy implementation may return a superset of the pushed-down
	// rows; the executor's re-check must still filter exactly.
	vt := &fakeVT{rows: vtRows([2]any{1, "a"}, [2]any{2, "b"})}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	res := mustExec(t, db, "SELECT COUNT(*) FROM vt WHERE k = 9")
	if res.Rows[0][0].Int != 0 {
		t.Fatalf("phantom rows leaked through: %v", res.Rows)
	}
}

func TestPhysicalTableShadowsVirtual(t *testing.T) {
	vt := &fakeVT{rows: vtRows([2]any{99, "virtual"})}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	mustExec(t, db, "CREATE TABLE vt (k INT, name TEXT)")
	mustExec(t, db, "INSERT INTO vt VALUES (1, 'physical')")
	res := mustExec(t, db, "SELECT name FROM vt")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"physical"}) {
		t.Fatalf("rows = %v", got)
	}
	if vt.calls != 0 {
		t.Fatalf("virtual table consulted despite shadowing")
	}
}

func TestTableFunction(t *testing.T) {
	tf := &fakeTF{}
	db := Open()
	db.Catalog = &fakeCatalog{tfs: map[string]TableFunc{"seq": tf}}

	res := mustExec(t, db, "SELECT i FROM seq(4) WHERE i >= 2 ORDER BY i")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"2", "3", "4"}) {
		t.Fatalf("rows = %v", got)
	}
	if len(tf.gotArgs) != 1 || tf.gotArgs[0].Int != 4 {
		t.Fatalf("args = %+v", tf.gotArgs)
	}

	// Aliased invocation joined against a physical table.
	mustExec(t, db, "CREATE TABLE names (i INT, name TEXT)")
	mustExec(t, db, "INSERT INTO names VALUES (1, 'one'), (3, 'three')")
	res = mustExec(t, db, "SELECT n.name FROM seq(3) s INNER JOIN names n ON s.i = n.i ORDER BY n.name")
	if got := rowsAsStrings(res); !reflect.DeepEqual(got, []string{"one", "three"}) {
		t.Fatalf("join rows = %v", got)
	}

	// Constant-folded argument expression.
	res = mustExec(t, db, "SELECT COUNT(*) FROM seq(1 + 2)")
	if res.Rows[0][0].Int != 3 {
		t.Fatalf("seq(1+2) count = %v", res.Rows[0][0])
	}

	// Equality pushdown reaches the function.
	mustExec(t, db, "SELECT i FROM seq(5) WHERE i = 2")
	if len(tf.gotPush) != 1 || tf.gotPush[0].Column != "i" {
		t.Fatalf("pushdowns = %+v", tf.gotPush)
	}

	if _, err := db.Exec("SELECT * FROM nosuchfunc(1)"); err == nil {
		t.Fatal("unknown table function accepted")
	}
	if _, err := db.Exec("SELECT * FROM seq(i)"); err == nil {
		t.Fatal("non-constant argument accepted")
	}
}

func TestMaxRowsCap(t *testing.T) {
	var rows [][]Value
	for i := 0; i < 10; i++ {
		rows = append(rows, []Value{Int(int64(i)), Text("x")})
	}
	vt := &fakeVT{rows: rows, honorPush: true}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	db.MaxRows = 5

	_, err := db.Exec("SELECT * FROM vt")
	if !errors.Is(err, ErrMaxRows) {
		t.Fatalf("uncapped scan error = %v, want ErrMaxRows", err)
	}
	if !strings.Contains(err.Error(), "max_rows_exceeded") {
		t.Fatalf("error message %q lacks max_rows_exceeded", err)
	}
	if vt.gotLimit != 5 {
		t.Fatalf("limit not forwarded: %d", vt.gotLimit)
	}

	// A pushed-down restriction brings the query under the cap.
	res := mustExec(t, db, "SELECT name FROM vt WHERE k IN (1, 2, 3)")
	if len(res.Rows) != 3 {
		t.Fatalf("restricted rows = %d", len(res.Rows))
	}

	// Join intermediates are capped too.
	vt.honorPush = false
	vt.rows = rows[:3]
	db.MaxRows = 4
	if _, err := db.Exec("SELECT * FROM vt a, vt b"); !errors.Is(err, ErrMaxRows) {
		t.Fatalf("cross-join error = %v, want ErrMaxRows", err)
	}
}

func TestVirtualTableErrorPropagates(t *testing.T) {
	vt := &fakeVT{err: errors.New("backend down")}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	if _, err := db.Exec("SELECT * FROM vt"); err == nil || !strings.Contains(err.Error(), "backend down") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecContextCancelled(t *testing.T) {
	vt := &fakeVT{rows: vtRows([2]any{1, "a"})}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "SELECT * FROM vt"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPushdownNotExtractedForOtherSource(t *testing.T) {
	vt := &fakeVT{rows: vtRows([2]any{1, "a"})}
	db := Open()
	db.Catalog = &fakeCatalog{vts: map[string]VirtualTable{"vt": vt}}
	mustExec(t, db, "CREATE TABLE other (k INT)")
	mustExec(t, db, "INSERT INTO other VALUES (7)")
	// The predicate targets `other` via alias; vt must see no pushdown.
	mustExec(t, db, "SELECT * FROM vt v, other o WHERE o.k = 7")
	if vt.gotPush != nil {
		t.Fatalf("pushdown leaked across sources: %+v", vt.gotPush)
	}
	// Unqualified `k` is ambiguous between vt and other: the query fails
	// at evaluation, but crucially no pushdown was extracted first.
	if _, err := db.Exec("SELECT * FROM vt v, other o WHERE k = 1"); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	if vt.gotPush != nil {
		t.Fatalf("ambiguous column pushed down: %+v", vt.gotPush)
	}
}

// sharedVT serves one row set to every query, as a catalog that caches
// its rows does, with INT values in a FLOAT column that the executor
// must widen.
type sharedVT struct{ rows [][]Value }

func (s *sharedVT) Columns() []ColumnDef {
	return []ColumnDef{{Name: "x", Type: TypeFloat}, {Name: "name", Type: TypeText}}
}

func (s *sharedVT) Rows(ctx context.Context, push []Pushdown, limit int) ([][]Value, error) {
	return s.rows, nil
}

// TestVirtualRowsNeverWritten pins the read-only contract on rows a
// virtual source returns: the executor widens INT to FLOAT in its own
// copy, leaves the source's rows as they were, and two DBs reading the
// same rows at once do not race.
func TestVirtualRowsNeverWritten(t *testing.T) {
	shared := [][]Value{{Int(1), Text("a")}, {Float(2.5), Text("b")}}
	want := [][]Value{{Int(1), Text("a")}, {Float(2.5), Text("b")}}
	cat := &fakeCatalog{vts: map[string]VirtualTable{"vt": &sharedVT{rows: shared}}}

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		db := Open()
		db.Catalog = cat
		go func() {
			res, err := db.Exec("SELECT x, name FROM vt ORDER BY x")
			if err == nil && (res.Rows[0][0] != Float(1) || res.Rows[1][0] != Float(2.5)) {
				err = fmt.Errorf("rows = %v, want x widened to FLOAT", res.Rows)
			}
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(shared, want) {
		t.Fatalf("source rows written:\n%#v\nwant\n%#v", shared, want)
	}
}
