package rollingjoin

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// orderUnionBranches are two branches over orders ⋈ items split by price,
// both projecting (item, price).
func orderUnionBranches() []ViewSpec {
	branch := func(name string, op CmpOp) ViewSpec {
		return ViewSpec{
			Name:    name,
			Tables:  []string{"orders", "items"},
			Joins:   []Join{{"orders", "item", "items", "item"}},
			Filters: []Filter{{Table: "items", Column: "price", Op: op, Value: Int(10)}},
			Output:  []OutCol{{"orders", "item"}, {"items", "price"}},
		}
	}
	return []ViewSpec{branch("cheap", LT), branch("pricey", GE)}
}

// insertOrders commits two items and n orders alternating between them,
// one commit each, and returns the last CSN.
func insertOrders(t *testing.T, db *DB, n int) CSN {
	t.Helper()
	if _, err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("items", Str("ball"), Int(5)); err != nil {
			return err
		}
		return tx.Insert("items", Str("bat"), Int(20))
	}); err != nil {
		t.Fatal(err)
	}
	var last CSN
	for i := 0; i < n; i++ {
		item := []string{"ball", "bat"}[i%2]
		var err error
		last, err = db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(i)), Str(item)) })
		if err != nil {
			t.Fatal(err)
		}
	}
	return last
}

// catchUpAndRefresh drives a relation to target and rolls its image there.
func catchUpAndRefresh(t *testing.T, r interface {
	CatchUp(CSN) error
	Refresh() (CSN, error)
}, target CSN) {
	t.Helper()
	if err := r.CatchUp(target); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestUnionSurvivesFold checks that a fold pass keeps the base delta rows a
// lagging Manual union has not propagated yet.
func TestUnionSurvivesFold(t *testing.T) {
	db := newTestDB(t, Options{})
	uv, err := db.DefineUnionView("u", orderUnionBranches(), Maintain{Interval: 4, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	last := insertOrders(t, db, 2)
	if err := db.Source().WaitProgress(last); err != nil {
		t.Fatal(err)
	}
	if err := db.Fold(); err != nil {
		t.Fatal(err)
	}
	catchUpAndRefresh(t, uv, last)
	if n := uv.Cardinality(); n != 2 {
		t.Fatalf("union after fold: %d rows, want 2", n)
	}
}

// TestUnionSurvivesPruneBaseDeltas checks that PruneBaseDeltas floors a
// base delta at a lagging union's HWM even when a caught-up view reads the
// same tables.
func TestUnionSurvivesPruneBaseDeltas(t *testing.T) {
	db := newTestDB(t, Options{})
	uv, err := db.DefineUnionView("u", orderUnionBranches(), Maintain{Interval: 4, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := insertOrders(t, db, 2)
	view.WaitForHWM(last)
	db.PruneBaseDeltas()
	catchUpAndRefresh(t, uv, last)
	if n := uv.Cardinality(); n != 2 {
		t.Fatalf("union after PruneBaseDeltas: %d rows, want 2", n)
	}
}

// TestUnionDeltaFolded checks that a fold pass prunes a union's own delta
// once its image has rolled past it, as for every maintained relation.
func TestUnionDeltaFolded(t *testing.T) {
	db := newTestDB(t, Options{})
	uv, err := db.DefineUnionView("u", orderUnionBranches(), Maintain{Interval: 4, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	last := insertOrders(t, db, 20)
	catchUpAndRefresh(t, uv, last)
	d, err := db.Engine().Delta("u")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("union delta empty before the fold")
	}
	if err := db.Fold(); err != nil {
		t.Fatal(err)
	}
	if n := d.Len(); n != 0 {
		t.Fatalf("union delta holds %d rows after the fold, want 0", n)
	}
	if n := uv.Cardinality(); n != 20 {
		t.Fatalf("union after fold: %d rows, want 20", n)
	}
}

// TestDropUnionDropsAggregate checks that DropView accepts a union and
// drops the aggregate defined over it, freeing both names.
func TestDropUnionDropsAggregate(t *testing.T) {
	db := newTestDB(t, Options{})
	spec := AggSpec{Name: "per_item", Source: "u", GroupBy: []string{"item"}, Aggs: []Agg{{Func: AggCount}}}
	for round := 0; round < 2; round++ {
		if _, err := db.DefineUnionView("u", orderUnionBranches(), Maintain{Manual: true}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := db.DefineAggregate(spec, Maintain{Manual: true}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := db.ViewNames(); !reflect.DeepEqual(got, []string{"per_item", "u"}) {
			t.Fatalf("round %d: names %v", round, got)
		}
		if err := db.DropView("u"); err != nil {
			t.Fatalf("round %d: drop union: %v", round, err)
		}
		if _, ok := db.Aggregate("per_item"); ok {
			t.Fatalf("round %d: aggregate over the dropped union survived", round)
		}
		if _, ok := db.Union("u"); ok {
			t.Fatalf("round %d: union survived its drop", round)
		}
		if got := db.ViewNames(); len(got) != 0 {
			t.Fatalf("round %d: names after drop %v", round, got)
		}
	}
}

// TestMaintainedNamesShareOneNamespace checks that a view, a union and an
// aggregate cannot take one another's names.
func TestMaintainedNamesShareOneNamespace(t *testing.T) {
	db := newTestDB(t, Options{})
	if _, err := db.DefineUnionView("u", orderUnionBranches(), Maintain{Manual: true}); err != nil {
		t.Fatal(err)
	}
	spec := orderPricesSpec()
	spec.Name = "u"
	if _, err := db.DefineView(spec, Maintain{Manual: true}); err == nil {
		t.Fatal("a view took the union's name")
	}
	if _, err := db.DefineAggregate(AggSpec{Name: "u", Source: "items", GroupBy: []string{"item"}, Aggs: []Agg{{Func: AggCount}}}, Maintain{Manual: true}); err == nil {
		t.Fatal("an aggregate took the union's name")
	}
	if _, err := db.DefineView(orderPricesSpec(), Maintain{Manual: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineUnionView("order_prices", orderUnionBranches(), Maintain{Manual: true}); err == nil {
		t.Fatal("a union took the view's name")
	}
	// The failed definitions left the union intact.
	uv, ok := db.Union("u")
	if !ok {
		t.Fatal("union lost")
	}
	last := insertOrders(t, db, 4)
	catchUpAndRefresh(t, uv, last)
	if n := uv.Cardinality(); n != 4 {
		t.Fatalf("union rows: %d, want 4", n)
	}
}

// num reads an integer or float value as a float.
func num(v Value) float64 {
	if v.Kind() == TypeInt {
		return float64(v.AsInt())
	}
	return v.AsFloat()
}

// TestAggregateOverUnion checks an aggregate defined over a union against
// a recomputation of the branches with db.Query.
func TestAggregateOverUnion(t *testing.T) {
	db := newTestDB(t, Options{})
	if _, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(100), Str("ball")) }); err != nil {
		t.Fatal(err)
	}
	uv, err := db.DefineUnionView("u", orderUnionBranches(), Maintain{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	av, err := db.DefineAggregate(AggSpec{
		Name:    "per_item",
		Source:  uv.Name(),
		GroupBy: []string{"item"},
		Aggs:    []Agg{{Func: AggCount}, {Func: AggSum, Column: "price"}},
	}, Maintain{})
	if err != nil {
		t.Fatal(err)
	}
	last := insertOrders(t, db, 9)
	if _, err := db.Update(func(tx *Tx) error {
		_, err := tx.Delete("orders", "id", EQ, Int(0), 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	last = db.LastCSN()
	catchUpAndRefresh(t, av, last)

	want := map[string][2]float64{}
	for _, b := range orderUnionBranches() {
		res, err := db.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			g := want[r[0].String()]
			g[0]++
			g[1] += num(r[1])
			want[r[0].String()] = g
		}
	}
	got := map[string][2]float64{}
	for _, r := range av.Rows() {
		got[r[0].String()] = [2]float64{num(r[1]), num(r[2])}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate over union %v, recomputation %v", got, want)
	}
}

// TestAggregateAccessors covers the aggregate-only accessors and the
// shared auto-refresh switch.
func TestAggregateAccessors(t *testing.T) {
	db := newTestDB(t, Options{})
	av, err := db.DefineAggregate(AggSpec{
		Name:    "per_item",
		Source:  "orders",
		GroupBy: []string{"item"},
		Aggs:    []Agg{{Func: AggCount}},
	}, Maintain{AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if av.Source() != "orders" {
		t.Fatalf("source %q", av.Source())
	}
	if got := av.Columns(); !reflect.DeepEqual(got, []string{"item", "count"}) {
		t.Fatalf("columns %v", got)
	}
	if err := av.StopAutoRefresh(); err != nil {
		t.Fatal(err)
	}
	start := av.MatTime()
	last := insertOrders(t, db, 4)
	av.WaitForHWM(last)
	if av.MatTime() != start {
		t.Fatalf("apply ran while auto-refresh was stopped: MatTime %d, start %d", av.MatTime(), start)
	}
	av.StartAutoRefresh()
	deadline := time.Now().Add(10 * time.Second)
	for av.MatTime() < last {
		if time.Now().After(deadline) {
			t.Fatalf("auto-refresh did not reach %d (MatTime %d)", last, av.MatTime())
		}
		time.Sleep(time.Millisecond)
	}
	if n := av.Groups(); n != 2 {
		t.Fatalf("groups %d, want 2", n)
	}
}

// TestRestoredTxIDReuseDropsOrphan reproduces an id reused after a
// checkpoint restore: transaction 2 logs an insert and never commits, the
// database checkpoints, a restored process draws ids from 1 again, and a
// full Recover must not attribute the orphan's row to the later commit
// that reused its id.
func TestRestoredTxIDReuseDropsOrphan(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	ckptPath := filepath.Join(dir, "snap.ckpt")
	open := func() *DB {
		db, err := Open(Options{WALPath: walPath})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable("orders", Col("id", TypeInt), Col("item", TypeString)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	insert := func(db *DB, id int64) {
		t.Helper()
		if _, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(id), Str("ball")) }); err != nil {
			t.Fatal(err)
		}
	}

	db := open()
	insert(db, 1)
	orphan := db.Begin()
	if err := orphan.Insert("orders", Int(666), Str("ball")); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db = open()
	if _, err := db.Restore(ckptPath); err != nil {
		t.Fatal(err)
	}
	for id := int64(2); id <= 4; id++ {
		insert(db, id)
	}
	db.Close()

	db = open()
	defer db.Close()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	if _, err := db.Update(func(tx *Tx) error {
		var err error
		rows, err = tx.Scan("orders")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range rows {
		ids = append(ids, fmt.Sprint(r[0]))
	}
	sort.Strings(ids)
	if !reflect.DeepEqual(ids, []string{"1", "2", "3", "4"}) {
		t.Fatalf("orders after recovery: %v, want ids 1-4", ids)
	}
}
