package capture

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/wal"
)

func newDB(t *testing.T) *engine.DB {
	t.Helper()
	db, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	sch := tuple.NewSchema(
		tuple.Column{Name: "id", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	if _, err := db.CreateTable("r", sch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateDelta("r"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("unwatched", sch); err != nil {
		t.Fatal(err)
	}
	return db
}

func insert(t *testing.T, db *engine.DB, table string, id int64, v string) relalg.CSN {
	t.Helper()
	tx := db.Begin()
	if err := tx.Insert(table, tuple.Tuple{tuple.Int(id), tuple.String_(v)}); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	csn, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return csn
}

func TestLogCaptureBasic(t *testing.T) {
	db := newDB(t)
	c := NewLogCapture(db)

	csn1 := insert(t, db, "r", 1, "a")
	tx := db.Begin()
	tx.Insert("r", tuple.Tuple{tuple.Int(2), tuple.String_("b")})
	tx.DeleteWhere("r", relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(1)}, 0)
	csn2, _ := tx.Commit()

	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if c.Progress() != csn2 {
		t.Fatalf("progress %d want %d", c.Progress(), csn2)
	}
	d, _ := db.Delta("r")
	all := d.All()
	if all.Len() != 3 {
		t.Fatalf("delta rows %d: %s", all.Len(), all)
	}
	// Row order is timestamp order: insert@1, then insert@2 and delete@2.
	if all.Rows[0].TS != csn1 || all.Rows[0].Count != 1 {
		t.Fatal("first delta row")
	}
	if all.Rows[2].Count != -1 || all.Rows[2].TS != csn2 {
		t.Fatal("delete delta row")
	}
	if c.RowsCaptured() != 3 || c.CommitsCaptured() != 2 {
		t.Fatalf("counters %d %d", c.RowsCaptured(), c.CommitsCaptured())
	}
}

func TestLogCaptureIgnoresAbortsAndUnwatched(t *testing.T) {
	db := newDB(t)
	c := NewLogCapture(db)

	tx := db.Begin()
	tx.Insert("r", tuple.Tuple{tuple.Int(1), tuple.String_("doomed")})
	tx.Abort()
	insert(t, db, "unwatched", 9, "z")

	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Delta("r")
	if d.Len() != 0 {
		t.Fatal("aborted/unwatched changes leaked into delta")
	}
	// The unwatched table's commit still advances progress and the UOW.
	if c.Progress() != 1 || c.UOW().Len() != 1 {
		t.Fatalf("progress %d uow %d", c.Progress(), c.UOW().Len())
	}
}

// TestLogCaptureBeginDropsOrphanFrames replays a log in which transaction
// id 2 was cut off after one insert and the id was then reused: a Begin
// starts a fresh transaction, so only the second insert is captured.
func TestLogCaptureBeginDropsOrphanFrames(t *testing.T) {
	db := newDB(t)
	c := NewLogCapture(db)
	for _, rec := range []*wal.Record{
		{Type: wal.TypeBegin, TxID: 2},
		{Type: wal.TypeInsert, TxID: 2, Table: "r", Row: tuple.Tuple{tuple.Int(666), tuple.String_("orphan")}},
		{Type: wal.TypeBegin, TxID: 2},
		{Type: wal.TypeInsert, TxID: 2, Table: "r", Row: tuple.Tuple{tuple.Int(1), tuple.String_("a")}},
		{Type: wal.TypeCommit, TxID: 2, CSN: 1},
	} {
		if _, err := db.Log().Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Delta("r")
	all := d.All()
	if all.Len() != 1 || all.Rows[0].Tuple[0].AsInt() != 1 {
		t.Fatalf("captured %s, want only row 1", all)
	}
}

func TestLogCaptureBackground(t *testing.T) {
	db := newDB(t)
	c := NewLogCapture(db)
	c.Start()
	c.Start() // idempotent

	var lastCSN relalg.CSN
	for i := 0; i < 20; i++ {
		lastCSN = insert(t, db, "r", int64(i), "v")
	}
	if err := c.WaitProgress(lastCSN); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Delta("r")
	if d.Len() != 20 {
		t.Fatalf("delta %d", d.Len())
	}
	db.Close()
	c.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// After stop, waiting for future progress errors out.
	if err := c.WaitProgress(lastCSN + 100); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestUnitOfWorkLookups(t *testing.T) {
	u := NewUnitOfWork()
	base := time.Unix(1000, 0)
	for i := 1; i <= 5; i++ {
		u.add(UOWEntry{TxID: uint64(i * 10), CSN: relalg.CSN(i), Wall: base.Add(time.Duration(i) * time.Minute)})
	}
	if e, ok := u.ByTx(30); !ok || e.CSN != 3 {
		t.Fatal("ByTx")
	}
	if _, ok := u.ByTx(99); ok {
		t.Fatal("ByTx missing")
	}
	if csn, ok := u.CSNAtOrBefore(base.Add(150 * time.Second)); !ok || csn != 2 {
		t.Fatalf("CSNAtOrBefore: %d %v", csn, ok)
	}
	if csn, ok := u.CSNAtOrBefore(base.Add(time.Hour)); !ok || csn != 5 {
		t.Fatalf("CSNAtOrBefore end: %d %v", csn, ok)
	}
	if _, ok := u.CSNAtOrBefore(base); ok {
		t.Fatal("CSNAtOrBefore before first commit")
	}
	if w, ok := u.WallForCSN(4); !ok || !w.Equal(base.Add(4*time.Minute)) {
		t.Fatal("WallForCSN")
	}
	if _, ok := u.WallForCSN(99); ok {
		t.Fatal("WallForCSN missing")
	}
}

func TestTriggerCaptureBasic(t *testing.T) {
	db := newDB(t)
	c := NewTriggerCapture(db)
	defer c.Stop()

	csn := insert(t, db, "r", 1, "a")
	// Synchronous: progress is already there, no waiting.
	if c.Progress() < csn {
		t.Fatalf("progress %d want >= %d", c.Progress(), csn)
	}
	if err := c.WaitProgress(csn); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Delta("r")
	if d.Len() != 1 {
		t.Fatal("delta not populated synchronously")
	}
	if c.RowsCaptured() != 1 || c.CommitsCaptured() != 1 || c.UOW().Len() != 1 {
		t.Fatal("counters")
	}
}

func TestTriggerCaptureReadOnlyCommitStays(t *testing.T) {
	db := newDB(t)
	c := NewTriggerCapture(db)
	defer c.Stop()
	tx := db.Begin()
	if err := tx.Insert("r", tuple.Tuple{tuple.Int(1), tuple.String_("v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tx := db.Begin()
		if csn, err := tx.Commit(); err != nil || csn != 1 { // read-only
			t.Fatalf("read-only commit: csn %d, %v", csn, err)
		}
	}
	// Read-only commits mint no CSN, so capture progress stays at the
	// last client commit and the sink saw only that commit.
	if c.Progress() != 1 || c.CommitsCaptured() != 1 {
		t.Fatalf("progress %d, commits captured %d, want 1 and 1", c.Progress(), c.CommitsCaptured())
	}
	if err := c.WaitProgress(1); err != nil {
		t.Fatal(err)
	}
}

func TestTriggerCaptureWaitStops(t *testing.T) {
	db := newDB(t)
	c := NewTriggerCapture(db)
	done := make(chan error, 1)
	go func() { done <- c.WaitProgress(100) }()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
}

func TestCapturesAgree(t *testing.T) {
	// Run both capture modes side by side on two engines fed identical
	// operations; the resulting delta tables must be identical.
	dbLog := newDB(t)
	dbTrig := newDB(t)
	logCap := NewLogCapture(dbLog)
	trigCap := NewTriggerCapture(dbTrig)
	defer trigCap.Stop()

	apply := func(db *engine.DB) {
		for i := 0; i < 10; i++ {
			tx := db.Begin()
			tx.Insert("r", tuple.Tuple{tuple.Int(int64(i)), tuple.String_("v")})
			if i%3 == 0 && i > 0 {
				tx.DeleteWhere("r", relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(int64(i - 1))}, 0)
			}
			tx.Commit()
		}
	}
	apply(dbLog)
	apply(dbTrig)
	if err := logCap.RunOnce(); err != nil {
		t.Fatal(err)
	}
	dLog, _ := dbLog.Delta("r")
	dTrig, _ := dbTrig.Delta("r")
	a, b := dLog.All(), dTrig.All()
	if a.Len() != b.Len() {
		t.Fatalf("capture modes disagree: %d vs %d rows", a.Len(), b.Len())
	}
	for i := range a.Rows {
		if a.Rows[i].Count != b.Rows[i].Count || a.Rows[i].TS != b.Rows[i].TS || !a.Rows[i].Tuple.Equal(b.Rows[i].Tuple) {
			t.Fatalf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestConcurrentWritersCaptureOrder(t *testing.T) {
	db := newDB(t)
	c := NewLogCapture(db)
	c.Start()
	var wg sync.WaitGroup
	const workers = 6
	const per = 30
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := db.Begin()
				if err := tx.Insert("r", tuple.Tuple{tuple.Int(int64(w*1000 + i)), tuple.String_("v")}); err != nil {
					tx.Abort()
					t.Error(err)
					return
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	last := db.LastCSN()
	if err := c.WaitProgress(last); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Delta("r")
	all := d.All()
	if all.Len() != workers*per {
		t.Fatalf("rows %d", all.Len())
	}
	// Delta rows must come out in nondecreasing timestamp order.
	for i := 1; i < all.Len(); i++ {
		if all.Rows[i].TS < all.Rows[i-1].TS {
			t.Fatal("delta not in timestamp order")
		}
	}
	db.Close()
	c.Wait()
}
