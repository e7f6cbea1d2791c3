package core

import (
	"fmt"
	"strconv"
	"strings"

	"fuzzydup/internal/nnindex"
	"fuzzydup/internal/sqldb"
)

// SQLRunner executes the partitioning phase the way the paper's prototype
// does (Figure 3's architecture): as a client issuing SQL against a
// database server. Phase 1's output is loaded into an NN_Reln table; a
// SELECT INTO self-join materializes CSPairs using registered scalar
// functions for the neighbor-set comparisons (the paper's UDF approach);
// and the CS-group ORDER BY query drives the client-side grouping loop.
//
// The in-memory Partition and the SQL path must produce identical
// partitions; tests assert it. The SQL path exists to reproduce the
// paper's architecture and to exercise the sqldb substrate end to end.
type SQLRunner struct {
	db *sqldb.DB
}

// NewSQLRunner opens a fresh embedded database and registers the
// comparison functions.
func NewSQLRunner() *SQLRunner {
	r := &SQLRunner{db: sqldb.Open()}
	r.registerFuncs()
	return r
}

// DB exposes the underlying database (for inspection in tests and the
// sqlsh REPL).
func (r *SQLRunner) DB() *sqldb.DB { return r.db }

// encodeIDList serializes an ordered neighbor list as "3,17,42".
func encodeIDList(list []nnindex.Neighbor) string {
	if len(list) == 0 {
		return ""
	}
	parts := make([]string, len(list))
	for i, n := range list {
		parts[i] = strconv.Itoa(n.ID)
	}
	return strings.Join(parts, ",")
}

// decodeIDList parses the "3,17,42" form.
func decodeIDList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("core: bad ID list %q: %w", s, err)
		}
		out[i] = v
	}
	return out, nil
}

// registerFuncs installs the two scalar functions the CSPairs query uses:
//
//	nn_mutual(id1, list1, id2, list2) -> BOOL
//	  whether each tuple appears in the other's neighbor list (the join
//	  predicate of the CSPairs construction step).
//
//	cs_flags(id1, list1, id2, list2) -> TEXT
//	  the CS2..CSm booleans as a string of '0'/'1', where flag j-2 says
//	  whether the closed j-neighbor sets of the two tuples coincide.
func (r *SQLRunner) registerFuncs() {
	argLists := func(args []sqldb.Value) (id1 int, l1 []int, id2 int, l2 []int, err error) {
		if args[0].Kind != sqldb.KindInt || args[2].Kind != sqldb.KindInt ||
			args[1].Kind != sqldb.KindText || args[3].Kind != sqldb.KindText {
			return 0, nil, 0, nil, fmt.Errorf("core: nn functions take (INT, TEXT, INT, TEXT)")
		}
		l1, err = decodeIDList(args[1].Str)
		if err != nil {
			return
		}
		l2, err = decodeIDList(args[3].Str)
		if err != nil {
			return
		}
		return int(args[0].Int), l1, int(args[2].Int), l2, nil
	}
	r.db.RegisterFunc("nn_mutual", 4, func(args []sqldb.Value) (sqldb.Value, error) {
		id1, l1, id2, l2, err := argLists(args)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Bool(containsID(l1, id2) && containsID(l2, id1)), nil
	})
	r.db.RegisterFunc("cs_flags", 4, func(args []sqldb.Value) (sqldb.Value, error) {
		id1, l1, id2, l2, err := argLists(args)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Text(csFlags(id1, l1, id2, l2)), nil
	})
}

func containsID(list []int, id int) bool {
	for _, v := range list {
		if v == id {
			return true
		}
	}
	return false
}

// csFlags computes the CS2..CSm booleans over two ordered neighbor lists;
// flag j-2 (character index) is '1' iff {id1} ∪ l1[:j-1] == {id2} ∪ l2[:j-1].
func csFlags(id1 int, l1 []int, id2 int, l2 []int) string {
	m := len(l1)
	if len(l2) < m {
		m = len(l2)
	}
	flags := make([]byte, 0, m)
	for j := 2; j <= m+1; j++ {
		set := make(map[int]struct{}, j)
		set[id1] = struct{}{}
		for _, id := range l1[:j-1] {
			set[id] = struct{}{}
		}
		equal := len(set) == j
		if equal {
			if _, ok := set[id2]; !ok {
				equal = false
			}
		}
		if equal {
			for _, id := range l2[:j-1] {
				if _, ok := set[id]; !ok {
					equal = false
					break
				}
			}
		}
		if equal {
			flags = append(flags, '1')
		} else {
			flags = append(flags, '0')
		}
	}
	return string(flags)
}

// LoadNNRelation materializes phase 1's output as the NN_Reln table.
func (r *SQLRunner) LoadNNRelation(rel *NNRelation) error {
	if _, err := r.db.Exec("CREATE TABLE nn_reln (id INT, nnlist TEXT, ng INT)"); err != nil {
		return err
	}
	for id, row := range rel.Rows {
		if err := r.db.Insert("nn_reln",
			sqldb.Int(int64(id)), sqldb.Text(encodeIDList(row.NNList)), sqldb.Int(int64(row.NG))); err != nil {
			return err
		}
	}
	return nil
}

// BuildCSPairs runs the CSPairs construction step: the SELECT INTO
// self-join of NN_Reln on mutual neighbor containment (Section 4.2).
func (r *SQLRunner) BuildCSPairs() error {
	_, err := r.db.Exec(`
		SELECT n1.id AS id1, n2.id AS id2, n1.ng AS ng1, n2.ng AS ng2,
		       cs_flags(n1.id, n1.nnlist, n2.id, n2.nnlist) AS cs
		INTO cspairs
		FROM nn_reln n1, nn_reln n2
		WHERE n1.id < n2.id AND nn_mutual(n1.id, n1.nnlist, n2.id, n2.nnlist)`)
	return err
}

// BuildCSPairsFast materializes the same CSPairs relation as
// BuildCSPairs but avoids the quadratic self-join: the neighbor lists are
// exploded into an edge table nn_edges(id, nid), so that "u is in v's
// list AND v is in u's list" becomes an equi-join the engine executes as
// a hash join over O(n·K) rows instead of probing all n² pairs. The
// result is identical; tests assert it. This is the optimization a real
// deployment would apply once relations outgrow the nested-loop join —
// the paper's complexity analysis already prices CSPairs at O(K·|R|).
func (r *SQLRunner) BuildCSPairsFast() error {
	if _, err := r.db.Exec("CREATE TABLE nn_edges (id INT, nid INT)"); err != nil {
		return err
	}
	res, err := r.db.Exec("SELECT id, nnlist FROM nn_reln")
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		id := row[0].Int
		ids, err := decodeIDList(row[1].Str)
		if err != nil {
			return err
		}
		for _, nid := range ids {
			if err := r.db.Insert("nn_edges", sqldb.Int(id), sqldb.Int(int64(nid))); err != nil {
				return err
			}
		}
	}
	// Mutual containment = the edge (a,b) with a<b exists in both
	// directions: join the edge table with its transpose, then attach the
	// two NN_Reln rows (again by equi-join) for the flag computation.
	_, err = r.db.Exec(`
		SELECT e.id AS id1, e.nid AS id2, n1.ng AS ng1, n2.ng AS ng2,
		       cs_flags(n1.id, n1.nnlist, n2.id, n2.nnlist) AS cs
		INTO cspairs
		FROM nn_edges e, nn_edges back, nn_reln n1, nn_reln n2
		WHERE e.id < e.nid
		  AND back.id = e.nid AND back.nid = e.id
		  AND n1.id = e.id AND n2.id = e.nid`)
	return err
}

// LoadNNRelationWide materializes phase 1's output with the NN-List
// expanded into one column per neighbor (nn1..nnK, NULL-padded) — the
// representation under which the paper notes the whole CSPairs
// computation needs only standard SQL, no user-defined functions.
func (r *SQLRunner) LoadNNRelationWide(rel *NNRelation, k int) error {
	ddl := "CREATE TABLE nn_wide (id INT, ng INT"
	for i := 1; i <= k; i++ {
		ddl += fmt.Sprintf(", nn%d INT", i)
	}
	ddl += ")"
	if _, err := r.db.Exec(ddl); err != nil {
		return err
	}
	for id, row := range rel.Rows {
		vals := make([]sqldb.Value, 0, k+2)
		vals = append(vals, sqldb.Int(int64(id)), sqldb.Int(int64(row.NG)))
		for i := 0; i < k; i++ {
			if i < len(row.NNList) {
				vals = append(vals, sqldb.Int(int64(row.NNList[i].ID)))
			} else {
				vals = append(vals, sqldb.Null())
			}
		}
		if err := r.db.Insert("nn_wide", vals...); err != nil {
			return err
		}
	}
	return nil
}

// BuildCSPairsPureSQL materializes CSPairs from the widened relation with
// generated CASE expressions only — the paper's Size-K observation that
// "when the ID-List attribute is expanded into K attributes ... we can
// use standard SQL and perform all of the computation at the database
// server". The CSj flag tests equality of the closed j-neighbor sets
// {id, nn1..nn(j-1)} by mutual containment (both sets have exactly j
// distinct elements, so one-directional containment plus the symmetric
// check is equality).
func (r *SQLRunner) BuildCSPairsPureSQL(k int) error {
	elems := func(alias string, j int) []string {
		out := []string{alias + ".id"}
		for i := 1; i < j; i++ {
			out = append(out, fmt.Sprintf("%s.nn%d", alias, i))
		}
		return out
	}
	containedIn := func(x string, set []string) string {
		parts := make([]string, len(set))
		for i, s := range set {
			parts[i] = fmt.Sprintf("%s = %s", x, s)
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	}
	setEqual := func(j int) string {
		a, b := elems("n1", j), elems("n2", j)
		var conj []string
		for _, x := range a {
			conj = append(conj, containedIn(x, b))
		}
		for _, x := range b {
			conj = append(conj, containedIn(x, a))
		}
		return strings.Join(conj, " AND ")
	}

	var caseCols []string
	for j := 2; j <= k; j++ {
		caseCols = append(caseCols,
			fmt.Sprintf("CASE WHEN %s THEN 1 ELSE 0 END AS cs%d", setEqual(j), j))
	}
	// Mutual K-NN containment as the join predicate, also in pure SQL.
	var mutual []string
	mutual = append(mutual, containedIn("n1.id", elems("n2", k+1)[1:]))
	mutual = append(mutual, containedIn("n2.id", elems("n1", k+1)[1:]))

	query := fmt.Sprintf(`
		SELECT n1.id AS id1, n2.id AS id2, n1.ng AS ng1, n2.ng AS ng2, %s
		INTO cspairs_wide
		FROM nn_wide n1, nn_wide n2
		WHERE n1.id < n2.id AND %s`,
		strings.Join(caseCols, ", "), strings.Join(mutual, " AND "))
	_, err := r.db.Exec(query)
	return err
}

// WideFlags reads back the pure-SQL CSPairs flags in the same form the
// UDF path produces: (min,max) pair to a '0'/'1' string over CS2..CSK.
func (r *SQLRunner) WideFlags(k int) (map[[2]int]string, error) {
	cols := "id1, id2"
	for j := 2; j <= k; j++ {
		cols += fmt.Sprintf(", cs%d", j)
	}
	res, err := r.db.Exec("SELECT " + cols + " FROM cspairs_wide ORDER BY id1, id2")
	if err != nil {
		return nil, err
	}
	flags := make(map[[2]int]string, len(res.Rows))
	for _, row := range res.Rows {
		a, b := int(row[0].Int), int(row[1].Int)
		buf := make([]byte, 0, k-1)
		for j := 2; j <= k; j++ {
			if row[j].Int == 1 {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
		flags[[2]int{a, b}] = string(buf)
	}
	return flags, nil
}

// Partition runs the partitioning step: the CS-group ORDER BY query over
// CSPairs, then the client-side grouping loop that extends pairwise set
// equality to maximal compact SN groups.
func (r *SQLRunner) Partition(prob Problem) ([][]int, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	// Tuple universe, NG values, and list lengths from NN_Reln.
	res, err := r.db.Exec("SELECT id, nnlist, ng FROM nn_reln ORDER BY id")
	if err != nil {
		return nil, err
	}
	n := len(res.Rows)
	rows := make([]NNRow, n)
	for _, row := range res.Rows {
		id := int(row[0].Int)
		if id < 0 || id >= n {
			return nil, fmt.Errorf("core: NN_Reln ids are not dense 0..n-1 (saw %d of %d)", id, n)
		}
		ids, err := decodeIDList(row[1].Str)
		if err != nil {
			return nil, err
		}
		list := make([]nnindex.Neighbor, len(ids))
		for i, nid := range ids {
			list[i] = nnindex.Neighbor{ID: nid}
		}
		rows[id] = NNRow{NNList: list, NG: int(row[2].Int)}
	}

	// The CS-group query of the paper.
	res, err = r.db.Exec("SELECT id1, id2, cs FROM cspairs ORDER BY id1, id2")
	if err != nil {
		return nil, err
	}
	flags := make(map[[2]int]string, len(res.Rows))
	for _, row := range res.Rows {
		a, b := int(row[0].Int), int(row[1].Int)
		flags[[2]int{a, b}] = row[2].Str
	}
	flagAt := func(a, b, j int) bool {
		if a > b {
			a, b = b, a
		}
		f := flags[[2]int{a, b}]
		return j-2 < len(f) && f[j-2] == '1'
	}

	assigned := make([]bool, n)
	var groups [][]int
	for v := 0; v < n; v++ {
		if assigned[v] {
			continue
		}
		list := rows[v].NNList
		jmax := len(list) + 1
		if prob.Cut.MaxSize > 0 && jmax > prob.Cut.MaxSize {
			jmax = prob.Cut.MaxSize
		}
		var emitted []int
		for j := jmax; j >= 2; j-- {
			group := []int{v}
			ok := true
			for _, nb := range list[:j-1] {
				if assigned[nb.ID] || !flagAt(v, nb.ID, j) {
					ok = false
					break
				}
				group = append(group, nb.ID)
			}
			if !ok || !SNHolds(rows, group, prob.Agg, prob.C) {
				continue
			}
			if prob.Exclude != nil && violatesExclude(group, prob.Exclude) {
				continue
			}
			emitted = group
			break
		}
		if emitted == nil {
			emitted = []int{v}
		}
		for _, id := range emitted {
			assigned[id] = true
		}
		groups = append(groups, emitted)
	}
	if prob.MinimalCompact {
		rel := &NNRelation{Rows: rows, Cut: prob.Cut, P: prob.growthFactor()}
		groups = splitNonMinimal(rel, groups, &PartitionStats{})
	}
	return SortGroups(groups), nil
}

// SolveSQL runs the full pipeline with phase 2 executed as SQL: phase 1
// against the index, NN_Reln load, CSPairs construction, and the
// partitioning step. It returns the partition, the NN relation, and the
// runner (whose database can be inspected afterwards).
func SolveSQL(idx nnindex.Index, prob Problem, opts Phase1Options) ([][]int, *NNRelation, *SQLRunner, error) {
	if err := prob.Validate(); err != nil {
		return nil, nil, nil, err
	}
	rel, err := ComputeNN(idx, prob.Cut, prob.growthFactor(), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	r := NewSQLRunner()
	if err := r.LoadNNRelation(rel); err != nil {
		return nil, nil, nil, err
	}
	if err := r.BuildCSPairs(); err != nil {
		return nil, nil, nil, err
	}
	groups, err := r.Partition(prob)
	if err != nil {
		return nil, nil, nil, err
	}
	return groups, rel, r, nil
}

// NGDistributionSQL returns the NG histogram via SQL — the aggregate query
// a practitioner would use to eyeball the Section 4.3 threshold.
func (r *SQLRunner) NGDistributionSQL() (map[int]int, error) {
	res, err := r.db.Exec("SELECT ng, COUNT(*) AS cnt FROM nn_reln GROUP BY ng ORDER BY ng")
	if err != nil {
		return nil, err
	}
	hist := make(map[int]int, len(res.Rows))
	for _, row := range res.Rows {
		hist[int(row[0].Int)] = int(row[1].Int)
	}
	return hist, nil
}
