package sql

import (
	"strings"
	"testing"
)

func TestSQLUnionView(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE orders (id INT, item TEXT);
		CREATE TABLE items (item TEXT, price INT);
		INSERT INTO items VALUES ('ball', 5), ('bat', 20);
		CREATE MATERIALIZED VIEW priced AS
			SELECT o.id, i.price FROM orders o JOIN items i ON o.item = i.item WHERE i.price < 10
			UNION
			SELECT o.id, i.price FROM orders o JOIN items i ON o.item = i.item WHERE i.price >= 10
			WITH INTERVAL 4;
		INSERT INTO orders VALUES (1, 'ball'), (2, 'bat'), (3, 'ball');
	`)
	mustExec(t, s, "REFRESH VIEW priced")
	res := mustExec(t, s, "SELECT * FROM priced")
	if len(res[0].Rows) != 3 {
		t.Fatalf("union rows: %+v", res[0].Rows)
	}
	res = mustExec(t, s, "SELECT id FROM priced WHERE price >= 10")
	if len(res[0].Rows) != 1 || res[0].Rows[0][0] != "2" {
		t.Fatalf("filtered union read: %+v", res[0].Rows)
	}
	res = mustExec(t, s, "SHOW VIEWS")
	if !strings.Contains(res[0].String(), "priced (union)") {
		t.Fatalf("SHOW VIEWS missing union: %s", res[0])
	}
	// Point-in-time refresh of a union view through SQL.
	mustExec(t, s, "INSERT INTO orders VALUES (4, 'bat')")
	last := s.DB.LastCSN()
	mustExec(t, s, "REFRESH VIEW priced TO COMMIT "+itoa(int64(last)))
	res = mustExec(t, s, "SELECT * FROM priced")
	if len(res[0].Rows) != 4 {
		t.Fatalf("after refresh-to: %+v", res[0].Rows)
	}

	// Errors.
	if _, err := s.Exec("CREATE MATERIALIZED VIEW priced AS SELECT * FROM orders UNION SELECT * FROM orders"); err == nil {
		t.Fatal("duplicate union name should fail")
	}
	if _, err := s.Exec("CREATE MATERIALIZED VIEW u2 AS SELECT * FROM orders UNION SELECT * FROM orders WITH STEPWISE"); err == nil {
		t.Fatal("stepwise union should fail")
	}
	if _, err := s.Exec("CREATE MATERIALIZED VIEW u3 AS SELECT id FROM orders UNION SELECT * FROM orders"); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

// TestSQLAggregateOverUnion defines an aggregate over a union view, reads
// it, lists both in SHOW VIEWS, and drops the union with its aggregate.
func TestSQLAggregateOverUnion(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, `
		CREATE TABLE orders (id INT, item TEXT);
		CREATE TABLE items (item TEXT, price INT);
		INSERT INTO items VALUES ('ball', 5), ('bat', 20);
		CREATE MATERIALIZED VIEW priced AS
			SELECT o.item, i.price FROM orders o JOIN items i ON o.item = i.item WHERE i.price < 10
			UNION
			SELECT o.item, i.price FROM orders o JOIN items i ON o.item = i.item WHERE i.price >= 10;
		CREATE MATERIALIZED VIEW per_item AS SELECT item, COUNT(*) FROM priced GROUP BY item;
		INSERT INTO orders VALUES (1, 'ball'), (2, 'bat'), (3, 'ball');
	`)
	mustExec(t, s, "REFRESH VIEW per_item")
	res := mustExec(t, s, "SELECT * FROM per_item")
	if got := res[0].Rows; len(got) != 2 || got[0][0] != "ball" || got[0][1] != "2" || got[1][0] != "bat" || got[1][1] != "1" {
		t.Fatalf("aggregate over union: %+v", got)
	}
	res = mustExec(t, s, "SHOW VIEWS")
	var names []string
	for _, row := range res[0].Rows {
		names = append(names, row[0])
	}
	if strings.Join(names, ",") != "per_item (aggregate),priced (union)" {
		t.Fatalf("SHOW VIEWS lists %v", names)
	}
	mustExec(t, s, "DROP VIEW priced")
	if res := mustExec(t, s, "SHOW VIEWS"); len(res[0].Rows) != 0 {
		t.Fatalf("after DROP VIEW of the union: %+v", res[0].Rows)
	}
	if _, err := s.Exec("SELECT * FROM per_item"); err == nil {
		t.Fatal("the aggregate over the dropped union is still readable")
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
