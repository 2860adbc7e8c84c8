package sql

import (
	"strings"
	"testing"

	rollingjoin "repro"
	"repro/internal/tuple"
)

// --- lexer ---

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a.b, 'it''s', -42, 3.5 FROM t WHERE x >= 7 -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "-42", ",", "3.5", "FROM", "t", "WHERE", "x", ">=", "7", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens: %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d: %q want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != tokKeyword || kinds[1] != tokIdent || kinds[5] != tokString || kinds[7] != tokNumber {
		t.Fatal("kinds")
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := lex("a # b"); err == nil {
		t.Fatal("bad character should fail")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Fatal("lone ! should fail")
	}
}

// --- parser ---

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE orders (id INT, item TEXT, price DOUBLE, ok BOOL, raw BYTES)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "orders" || len(ct.Cols) != 5 {
		t.Fatalf("%+v", ct)
	}
	if ct.Cols[0].Type != tuple.KindInt || ct.Cols[1].Type != tuple.KindString ||
		ct.Cols[2].Type != tuple.KindFloat || ct.Cols[3].Type != tuple.KindBool ||
		ct.Cols[4].Type != tuple.KindBytes {
		t.Fatalf("types: %+v", ct.Cols)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (1, 'a', TRUE, NULL), (2, 'b', FALSE, 1.5)")
	if err != nil {
		t.Fatal(err)
	}
	in := st.(*Insert)
	if in.Table != "t" || len(in.Rows) != 2 || len(in.Rows[0]) != 4 {
		t.Fatalf("%+v", in)
	}
	if in.Rows[0][0].AsInt() != 1 || in.Rows[0][1].AsString() != "a" ||
		!in.Rows[0][2].AsBool() || !in.Rows[0][3].IsNull() {
		t.Fatal("row 0 literals")
	}
	if in.Rows[1][3].AsFloat() != 1.5 {
		t.Fatal("float literal")
	}
}

func TestParseDelete(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE a = 1 AND t.b <> 'x' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	d := st.(*Delete)
	if d.Table != "t" || len(d.Where) != 2 || d.Limit != 3 {
		t.Fatalf("%+v", d)
	}
	if d.Where[1].Qual != "t" || d.Where[1].Op != "<>" {
		t.Fatalf("%+v", d.Where[1])
	}
}

func TestParseSelect(t *testing.T) {
	st, err := Parse(`SELECT o.id, price FROM orders o JOIN items i ON o.item = i.item AND o.x = i.y WHERE i.price < 10`)
	if err != nil {
		t.Fatal(err)
	}
	q := st.(*Select)
	if q.Star || len(q.Cols) != 2 || len(q.From) != 2 || len(q.Joins) != 2 || len(q.Where) != 1 {
		t.Fatalf("%+v", q)
	}
	if q.From[1].Alias != "i" || q.Joins[0].LeftQual != "o" {
		t.Fatal("aliases")
	}
	st2, err := Parse("SELECT * FROM v")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.(*Select).Star {
		t.Fatal("star")
	}
}

func TestParseCreateView(t *testing.T) {
	st, err := Parse(`CREATE MATERIALIZED VIEW v AS SELECT * FROM a JOIN b ON a.k = b.k WITH INTERVALS (8, 64), MANUAL`)
	if err != nil {
		t.Fatal(err)
	}
	cv := st.(*CreateView)
	if cv.Name != "v" || len(cv.Intervals) != 2 || cv.Intervals[1] != 64 || !cv.Manual || cv.Stepwise {
		t.Fatalf("%+v", cv)
	}
	st2, err := Parse(`CREATE MATERIALIZED VIEW w AS SELECT * FROM a WITH INTERVAL 4, STEPWISE`)
	if err != nil {
		t.Fatal(err)
	}
	cv2 := st2.(*CreateView)
	if cv2.Interval != 4 || !cv2.Stepwise {
		t.Fatalf("%+v", cv2)
	}
}

// TestParseSummaryRefreshShow checks REFRESH VIEW and SHOW parse, and
// that the summary statements are not part of the dialect: aggregates are
// CREATE MATERIALIZED VIEW ... GROUP BY and refresh through REFRESH VIEW.
func TestParseSummaryRefreshShow(t *testing.T) {
	for _, q := range []string{
		"CREATE SUMMARY s OF v GROUP BY item, region SUM (price, qty)",
		"REFRESH SUMMARY s",
	} {
		if _, err := Parse(q); err == nil {
			t.Fatalf("%s: parsed", q)
		}
	}
	st, err := Parse("REFRESH VIEW v TO COMMIT 42")
	if err != nil {
		t.Fatal(err)
	}
	if r := st.(*Refresh); r.Name != "v" || r.ToCSN != 42 {
		t.Fatalf("%+v", r)
	}
	st, err = Parse("REFRESH VIEW v")
	if err != nil {
		t.Fatal(err)
	}
	if r := st.(*Refresh); r.ToCSN != -1 {
		t.Fatalf("%+v", r)
	}
	for _, q := range []string{"SHOW TABLES", "SHOW VIEWS", "SHOW STATS v"} {
		if _, err := Parse(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROBNICATE",
		"CREATE",
		"CREATE TABLE t",
		"CREATE TABLE t (a BANANA)",
		"INSERT INTO t VALUES 1",
		"SELECT FROM t",
		"SELECT * FROM t JOIN",
		"DELETE t",
		"REFRESH v",
		"REFRESH VIEW v TO 42",
		"SHOW ME",
		"SELECT * FROM a WHERE x ~ 3",
		"SELECT * FROM a; garbage",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll("CREATE TABLE a (x INT); INSERT INTO a VALUES (1);; SELECT * FROM a;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("%d statements", len(stmts))
	}
}

// --- executor ---

func newSession(t *testing.T) *Session {
	t.Helper()
	db, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return NewSession(db)
}

func mustExec(t *testing.T, s *Session, script string) []*Result {
	t.Helper()
	res, err := s.Exec(script)
	if err != nil {
		t.Fatalf("%s: %v", script, err)
	}
	return res
}

func TestEndToEndSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE orders (id INT, item TEXT);
		CREATE TABLE items (item TEXT, price INT);
		INSERT INTO items VALUES ('ball', 5), ('bat', 20);
		CREATE MATERIALIZED VIEW order_prices AS
			SELECT o.id, i.price FROM orders o JOIN items i ON o.item = i.item
			WITH INTERVAL 4, MANUAL;
		INSERT INTO orders VALUES (1, 'ball'), (2, 'bat'), (3, 'ball');
	`)

	// Drive propagation manually and refresh.
	v, ok := s.DB.View("order_prices")
	if !ok {
		t.Fatal("view not registered")
	}
	last := s.DB.LastCSN()
	for v.HWM() < last {
		if err := v.PropagateStep(); err != nil && !strings.Contains(err.Error(), "no captured changes") {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "REFRESH VIEW order_prices")

	res := mustExec(t, s, "SELECT * FROM order_prices")
	if len(res[0].Rows) != 3 {
		t.Fatalf("view rows: %+v", res[0].Rows)
	}
	res = mustExec(t, s, "SELECT id FROM order_prices WHERE price > 10")
	if len(res[0].Rows) != 1 || res[0].Rows[0][0] != "2" {
		t.Fatalf("filtered view read: %+v", res[0].Rows)
	}

	// Ad-hoc join (no view).
	res = mustExec(t, s, "SELECT o.id FROM orders o JOIN items i ON o.item = i.item WHERE i.price < 10")
	if len(res[0].Rows) != 2 {
		t.Fatalf("ad-hoc: %+v", res[0].Rows)
	}

	// Deletes flow through maintenance.
	mustExec(t, s, "DELETE FROM orders WHERE id = 1")
	last = s.DB.LastCSN()
	for v.HWM() < last {
		if err := v.PropagateStep(); err != nil && !strings.Contains(err.Error(), "no captured changes") {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "REFRESH VIEW order_prices")
	res = mustExec(t, s, "SELECT * FROM order_prices")
	if len(res[0].Rows) != 2 {
		t.Fatalf("after delete: %+v", res[0].Rows)
	}

	// SHOW output sanity.
	res = mustExec(t, s, "SHOW TABLES; SHOW VIEWS; SHOW STATS order_prices")
	if len(res[0].Rows) != 2 || len(res[1].Rows) != 1 || len(res[2].Rows) == 0 {
		t.Fatalf("show: %+v", res)
	}
	if !strings.Contains(res[1].String(), "order_prices") {
		t.Fatal("render")
	}
}

func TestSQLErrors(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (a INT, b INT)")
	bad := []string{
		"CREATE TABLE t (a INT)",              // duplicate
		"INSERT INTO ghost VALUES (1)",        // missing table
		"INSERT INTO t VALUES (1)",            // arity
		"DELETE FROM t WHERE ghost = 1",       // bad column
		"SELECT * FROM t JOIN t ON t.a = t.a", // self join (alias dup)
		"SELECT ghost FROM t",                 // unknown column
		"REFRESH VIEW ghost",                  // missing view
		"SHOW STATS ghost",                    // missing view
	}
	for _, q := range bad {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestSQLDropView(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE a (k INT);
		CREATE MATERIALIZED VIEW v AS SELECT * FROM a WITH INTERVAL 2;
	`)
	mustExec(t, s, "DROP VIEW v")
	if _, err := s.Exec("REFRESH VIEW v"); err == nil {
		t.Fatal("dropped view should be gone")
	}
	if _, err := s.Exec("DROP VIEW v"); err == nil {
		t.Fatal("double drop should fail")
	}
	if _, err := s.Exec("DROP VIEW"); err == nil {
		t.Fatal("missing name should fail to parse")
	}
	// The base table is unaffected.
	mustExec(t, s, "INSERT INTO a VALUES (1)")
}

func TestSQLAmbiguousAndCoercion(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE a (k INT, v FLOAT);
		CREATE TABLE b (k INT, w INT);
		INSERT INTO a VALUES (1, 2);    -- int literal coerced to float column
		INSERT INTO b VALUES (1, 10);
	`)
	if _, err := s.Exec("SELECT k FROM a JOIN b ON a.k = b.k"); err == nil {
		t.Fatal("ambiguous column should fail")
	}
	res := mustExec(t, s, "SELECT v FROM a JOIN b ON a.k = b.k")
	if len(res[0].Rows) != 1 || res[0].Rows[0][0] != "2" {
		t.Fatalf("coerced read: %+v", res[0].Rows)
	}
}
