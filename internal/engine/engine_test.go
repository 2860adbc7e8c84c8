package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/wal"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func ordersSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "item", Kind: tuple.KindString},
	)
}

func mustExec(t *testing.T, tx *Tx, err error) {
	t.Helper()
	if err != nil {
		tx.Abort()
		t.Fatal(err)
	}
}

func TestCatalog(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateTable("orders", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("orders", ordersSchema()); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate table should fail")
	}
	if _, err := db.Table("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatal("missing table lookup")
	}
	if _, err := db.CreateDelta("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatal("delta on missing base")
	}
	if _, err := db.CreateDelta("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateDelta("orders"); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate delta")
	}
	if !db.HasDelta("orders") || db.HasDelta("missing") {
		t.Fatal("HasDelta")
	}
	if _, err := db.Delta("missing"); !errors.Is(err, ErrNoSuchDelta) {
		t.Fatal("missing delta lookup")
	}
	if _, err := db.CreateStandaloneDelta("dV", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateStandaloneDelta("dV", ordersSchema()); !errors.Is(err, ErrExists) {
		t.Fatal("duplicate standalone delta")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "orders" {
		t.Fatalf("names %v", names)
	}
}

func TestInsertScanCommit(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	tx := db.Begin()
	mustExec(t, tx, tx.Insert("orders", tuple.Tuple{tuple.Int(1), tuple.String_("ball")}))
	mustExec(t, tx, tx.Insert("orders", tuple.Tuple{tuple.Int(2), tuple.String_("bat")}))
	csn, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if csn != 1 {
		t.Fatalf("csn %d", csn)
	}

	tx2 := db.Begin()
	rel, err := tx2.Scan("orders", nil)
	mustExec(t, tx2, err)
	if rel.Len() != 2 || rel.Cardinality() != 2 {
		t.Fatalf("scan %d rows", rel.Len())
	}
	for _, r := range rel.Rows {
		if r.Count != 1 || r.TS != relalg.NullTS {
			t.Fatal("base rows must be count=1 ts=null")
		}
	}
	tx2.Commit()
}

func TestInsertValidatesSchema(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	tx := db.Begin()
	if err := tx.Insert("orders", tuple.Tuple{tuple.String_("wrong"), tuple.Int(1)}); err == nil {
		t.Fatal("want validation error")
	}
	if err := tx.Insert("missing", tuple.Tuple{}); !errors.Is(err, ErrNoSuchTable) {
		t.Fatal("missing table")
	}
	tx.Abort()
}

func TestDeleteWhere(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	tx := db.Begin()
	for i := 1; i <= 10; i++ {
		mustExec(t, tx, tx.Insert("orders", tuple.Tuple{tuple.Int(int64(i)), tuple.String_("x")}))
	}
	tx.Commit()

	tx2 := db.Begin()
	n, err := tx2.DeleteWhere("orders", relalg.ColConst{Col: 0, Op: relalg.OpLE, Val: tuple.Int(4)}, 0)
	mustExec(t, tx2, err)
	if n != 4 {
		t.Fatalf("deleted %d", n)
	}
	tx2.Commit()

	tx3 := db.Begin()
	n, err = tx3.DeleteWhere("orders", nil, 2)
	mustExec(t, tx3, err)
	if n != 2 {
		t.Fatalf("limited delete %d", n)
	}
	rel, _ := tx3.Scan("orders", nil)
	if rel.Len() != 4 {
		t.Fatalf("remaining %d", rel.Len())
	}
	tx3.Commit()
}

func TestAbortUndoesWrites(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	tx := db.Begin()
	tx.Insert("orders", tuple.Tuple{tuple.Int(1), tuple.String_("keep")})
	tx.Commit()

	tx2 := db.Begin()
	tx2.Insert("orders", tuple.Tuple{tuple.Int(2), tuple.String_("drop")})
	tx2.DeleteWhere("orders", relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(1)}, 0)
	tx2.Abort()

	tx3 := db.Begin()
	rel, _ := tx3.Scan("orders", nil)
	tx3.Commit()
	if rel.Len() != 1 || rel.Rows[0].Tuple[0].AsInt() != 1 {
		t.Fatalf("abort not undone: %s", rel)
	}
}

func TestWALRecordsWritten(t *testing.T) {
	dev := wal.NewMemDevice()
	db, err := Open(Config{Device: dev, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("orders", ordersSchema())

	tx := db.Begin()
	tx.Insert("orders", tuple.Tuple{tuple.Int(1), tuple.String_("a")})
	tx.Commit()
	txA := db.Begin()
	txA.Insert("orders", tuple.Tuple{tuple.Int(2), tuple.String_("b")})
	txA.Abort()

	r := db.Log().NewReader(0)
	var types []wal.Type
	for {
		rec, err := r.Next()
		if errors.Is(err, wal.ErrNoMore) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, rec.Type)
	}
	want := []wal.Type{wal.TypeBegin, wal.TypeInsert, wal.TypeCommit, wal.TypeBegin, wal.TypeInsert, wal.TypeAbort}
	if len(types) != len(want) {
		t.Fatalf("types %v", types)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("record %d: %s want %s", i, types[i], want[i])
		}
	}
}

func TestReadOnlyCommitAppendsNothing(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	w := db.Begin()
	w.Insert("orders", tuple.Tuple{tuple.Int(1), tuple.String_("ball")})
	if csn, err := w.Commit(); err != nil || csn != 1 {
		t.Fatalf("writer commit: csn %d, %v", csn, err)
	}
	size := db.Log().Size()

	tx := db.Begin()
	if _, err := tx.Scan("orders", nil); err != nil {
		t.Fatal(err)
	}
	csn, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// A read-only commit returns the newest assigned CSN, mints none and
	// appends nothing to the log.
	if csn != 1 || db.LastCSN() != 1 {
		t.Fatalf("read-only commit: csn %d, LastCSN %d, want 1 and 1", csn, db.LastCSN())
	}
	if got := db.Log().Size(); got != size {
		t.Fatalf("read-only commit grew the log from %d to %d bytes", size, got)
	}
	// Its table S lock is released: a writer takes IX without waiting.
	w = db.Begin()
	done := make(chan error, 1)
	go func() { done <- w.Insert("orders", tuple.Tuple{tuple.Int(2), tuple.String_("bat")}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked behind a committed read-only transaction's lock")
	}
	if csn, err := w.Commit(); err != nil || csn != 2 {
		t.Fatalf("next writer commit: csn %d, %v", csn, err)
	}
}

func TestScanBlocksOnWriter(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	w := db.Begin()
	w.Insert("orders", tuple.Tuple{tuple.Int(1), tuple.String_("uncommitted")})

	scanned := make(chan int, 1)
	go func() {
		r := db.Begin()
		rel, err := r.Scan("orders", nil)
		if err != nil {
			scanned <- -1
			return
		}
		r.Commit()
		scanned <- rel.Len()
	}()
	select {
	case <-scanned:
		t.Fatal("scan should block while writer holds IX")
	case <-time.After(30 * time.Millisecond):
	}
	w.Commit()
	if n := <-scanned; n != 1 {
		t.Fatalf("scan after writer commit: %d", n)
	}
}

func TestDeltaTableWindowAndPrune(t *testing.T) {
	d := newDeltaTable("r", ordersSchema())
	for i := 1; i <= 10; i++ {
		d.Append(relalg.CSN(i), 1, tuple.Tuple{tuple.Int(int64(i)), tuple.String_("x")})
	}
	if d.Len() != 10 || d.MaxTS() != 10 {
		t.Fatal("len/maxts")
	}
	w := d.Window(3, 7)
	if w.Len() != 4 {
		t.Fatalf("window (3,7] should have 4 rows, got %d", w.Len())
	}
	if w.Rows[0].TS != 4 || w.Rows[3].TS != 7 {
		t.Fatal("window bounds")
	}
	if d.Window(7, 3).Len() != 0 {
		t.Fatal("inverted window should be empty")
	}
	if n := d.PruneThrough(5); n != 5 {
		t.Fatalf("pruned %d", n)
	}
	if d.Len() != 5 || d.Window(0, 10).Len() != 5 {
		t.Fatal("after prune")
	}
	empty := newDeltaTable("e", ordersSchema())
	if empty.MaxTS() != relalg.NullTS {
		t.Fatal("empty maxts")
	}
}

func TestDeltaAppendUndoneOnAbort(t *testing.T) {
	db := testDB(t)
	d, _ := db.CreateStandaloneDelta("dV", ordersSchema())
	tx := db.Begin()
	tx.AppendDelta(d, 5, 1, tuple.Tuple{tuple.Int(1), tuple.String_("x")})
	tx.Abort()
	if d.Len() != 0 {
		t.Fatal("delta append not undone")
	}
}

func TestEvalQueryJoin(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r1", tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
		tuple.Column{Name: "b", Kind: tuple.KindInt},
	))
	db.CreateTable("r2", tuple.NewSchema(
		tuple.Column{Name: "b", Kind: tuple.KindInt},
		tuple.Column{Name: "c", Kind: tuple.KindInt},
	))
	tx := db.Begin()
	for i := 0; i < 5; i++ {
		tx.Insert("r1", tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i % 2))})
		tx.Insert("r2", tuple.Tuple{tuple.Int(int64(i % 2)), tuple.Int(int64(i * 10))})
	}
	tx.Commit()

	q := &Query{
		Inputs: []Input{
			{Kind: InputBase, Table: "r1"},
			{Kind: InputBase, Table: "r2"},
		},
		Conds: []JoinCond{{A: ColRef{0, 1}, B: ColRef{1, 0}}},
	}
	tx2 := db.Begin()
	rel, err := tx2.EvalQuery(q)
	mustExec(t, tx2, err)
	tx2.Commit()
	// r1 has 3 rows with b=0, 2 with b=1; r2 has 3 rows with b=0, 2 with b=1.
	if rel.Len() != 3*3+2*2 {
		t.Fatalf("join size %d", rel.Len())
	}

	// With projection and residual.
	q2 := &Query{
		Inputs:   q.Inputs,
		Conds:    q.Conds,
		Residual: relalg.ColConst{Col: 3, Op: relalg.OpGE, Val: tuple.Int(20)},
		Project:  []ColRef{{0, 0}, {1, 1}},
	}
	tx3 := db.Begin()
	rel2, err := tx3.EvalQuery(q2)
	mustExec(t, tx3, err)
	tx3.Commit()
	if rel2.Schema.Arity() != 2 {
		t.Fatal("projection arity")
	}
	for _, r := range rel2.Rows {
		if r.Tuple[1].AsInt() < 20 {
			t.Fatal("residual not applied")
		}
	}
}

func TestEvalQueryWithDeltaAndPushdown(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r1", tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt},
	))
	db.CreateDelta("r1")
	d, _ := db.Delta("r1")
	tx := db.Begin()
	tx.Insert("r1", tuple.Tuple{tuple.Int(1)})
	tx.Insert("r1", tuple.Tuple{tuple.Int(2)})
	tx.Commit()
	d.Append(1, 1, tuple.Tuple{tuple.Int(1)})
	d.Append(2, 1, tuple.Tuple{tuple.Int(2)})
	d.Append(3, -1, tuple.Tuple{tuple.Int(1)})

	q := &Query{
		Inputs: []Input{
			{Kind: InputDelta, Table: "r1", Lo: 0, Hi: 2},
			{Kind: InputBase, Table: "r1", Pred: relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(1)}},
		},
		Conds: []JoinCond{{A: ColRef{0, 0}, B: ColRef{1, 0}}},
	}
	tx2 := db.Begin()
	rel, err := tx2.EvalQuery(q)
	mustExec(t, tx2, err)
	tx2.Commit()
	if rel.Len() != 1 || rel.Rows[0].TS != 1 || rel.Rows[0].Count != 1 {
		t.Fatalf("delta join: %s", rel)
	}
}

func TestEvalQueryMaterializedInput(t *testing.T) {
	db := testDB(t)
	sch := tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt})
	mat := relalg.NewRelation(sch)
	mat.Add(tuple.Tuple{tuple.Int(5)}, 2, 7)
	q := &Query{Inputs: []Input{{Kind: InputRelation, Rel: mat, Pred: relalg.True{}}}}
	tx := db.Begin()
	rel, err := tx.EvalQuery(q)
	mustExec(t, tx, err)
	tx.Commit()
	if rel.Len() != 1 || rel.Rows[0].Count != 2 {
		t.Fatal("materialized input")
	}
}

func TestExecutePropagation(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r1", tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt}))
	db.CreateDelta("r1")
	d, _ := db.Delta("r1")
	dest, _ := db.CreateStandaloneDelta("dV", tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt}))
	for i := 1; i <= 2; i++ {
		tx := db.Begin()
		tx.Insert("r1", tuple.Tuple{tuple.Int(int64(10 * i))})
		csn, _ := tx.Commit()
		d.Append(csn, 1, tuple.Tuple{tuple.Int(int64(10 * i))})
	}
	size := db.Log().Size()

	q := &Query{Inputs: []Input{{Kind: InputDelta, Table: "r1", Lo: 0, Hi: 2}}, AsOf: 2}
	te, n, _, err := db.ExecutePropagation(q, -1, dest)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || te != 2 {
		t.Fatalf("n=%d t_e=%d, want 2 and the AsOf time 2", n, te)
	}
	if db.LastCSN() != 2 || db.Log().Size() != size {
		t.Fatalf("propagation minted a CSN or logged: LastCSN %d, log %d -> %d bytes", db.LastCSN(), size, db.Log().Size())
	}
	all := dest.All()
	if all.Len() != 2 || all.Rows[0].Count != -1 {
		t.Fatalf("dest: %s", all)
	}
	// Timestamps preserved from the source delta rows.
	if all.Rows[0].TS != 1 || all.Rows[1].TS != 2 {
		t.Fatal("dest timestamps")
	}

	q.AsOf = relalg.NullTS
	if _, _, _, err := db.ExecutePropagation(q, 1, dest); !errors.Is(err, ErrNoAsOf) {
		t.Fatalf("propagation without AsOf: %v, want ErrNoAsOf", err)
	}
	if dest.Len() != 2 {
		t.Fatal("rejected propagation must not append")
	}
}

func TestExecutePropagationRejectsNullTS(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r1", tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt}))
	dest, _ := db.CreateStandaloneDelta("dV", tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt}))
	tx := db.Begin()
	tx.Insert("r1", tuple.Tuple{tuple.Int(1)})
	csn, _ := tx.Commit()
	q := &Query{Inputs: []Input{{Kind: InputBase, Table: "r1"}}, AsOf: csn}
	if _, _, _, err := db.ExecutePropagation(q, 1, dest); err == nil {
		t.Fatal("all-base propagation must be rejected (null timestamps)")
	}
	if dest.Len() != 0 {
		t.Fatal("aborted propagation must leave dest empty")
	}
}

type captureSink struct {
	mu     sync.Mutex
	events []struct {
		csn    relalg.CSN
		writes int
	}
}

func (s *captureSink) OnCommit(writes []Write, csn relalg.CSN, _ time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, struct {
		csn    relalg.CSN
		writes int
	}{csn, len(writes)})
}

func TestTriggerSink(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	sink := &captureSink{}
	db.SetTriggerSink(sink)

	tx := db.Begin()
	tx.Insert("orders", tuple.Tuple{tuple.Int(1), tuple.String_("a")})
	tx.Insert("orders", tuple.Tuple{tuple.Int(2), tuple.String_("b")})
	tx.Commit()

	txA := db.Begin()
	txA.Insert("orders", tuple.Tuple{tuple.Int(3), tuple.String_("c")})
	txA.Abort()

	ro := db.Begin()
	ro.Commit() // read-only: no sink call

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != 1 || sink.events[0].writes != 2 || sink.events[0].csn != 1 {
		t.Fatalf("sink events: %+v", sink.events)
	}
}

func TestConcurrentWritersDisjointRows(t *testing.T) {
	db := testDB(t)
	db.CreateTable("orders", ordersSchema())
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := db.Begin()
				err := tx.Insert("orders", tuple.Tuple{tuple.Int(int64(w*1000 + i)), tuple.String_(fmt.Sprint(w))})
				if err != nil {
					tx.Abort()
					t.Error(err)
					return
				}
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tx := db.Begin()
	rel, _ := tx.Scan("orders", nil)
	tx.Commit()
	if rel.Len() != workers*perWorker {
		t.Fatalf("rows %d", rel.Len())
	}
	st := db.Stats()
	if st.RowsInserted != workers*perWorker || st.Txn.Committed != workers*perWorker+1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQueryString(t *testing.T) {
	q := &Query{Inputs: []Input{
		{Kind: InputBase, Table: "r1"},
		{Kind: InputDelta, Table: "r2", Lo: 3, Hi: 9},
		{Kind: InputRelation},
	}}
	want := "r1 ⋈ Δr2(3,9] ⋈ <rel>"
	if got := q.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}
