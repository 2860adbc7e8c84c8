package engine

import (
	"math/rand"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// The dead-version queue: every committed-dead version is queued by its
// dead CSN, and GC pops the queue instead of walking the heap.

func orderRow(id int64) tuple.Tuple {
	return tuple.Tuple{tuple.Int(id), tuple.String_("x")}
}

// assertNoCommittedDead walks the heap and fails on any version whose
// delete has committed (GC should have collected every one of them).
func assertNoCommittedDead(t *testing.T, tbl *Table) {
	t.Helper()
	tbl.latch.RLock()
	defer tbl.latch.RUnlock()
	for it := tbl.heap.First(); it.Valid(); it.Next() {
		if _, dead, _ := decodeVersionHeader(it.Value()); dead != csnNone && dead != csnDeadPending {
			t.Fatalf("rowid %d: committed-dead version (dead %d) survived GC", rowidFromKey(it.Key()), dead)
		}
	}
}

func TestGCOutOfOrderStamps(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	db.CreateIndex("r", "id")
	seedRows(t, db, "r", 4) // rowids 1..4 born at CSNs 1..4
	tbl, _ := db.Table("r")

	// Two deleters commit at 5 and 7; the later one publishes first, which
	// publish outside the commit mutex allows.
	db.tm.Recover(7)
	tbl.markDead(1)
	tbl.markDead(2)
	tbl.stampDead(1, 7)
	tbl.stampDead(2, 5)
	if n := tbl.DeadVersions(); n != 2 {
		t.Fatalf("dead versions %d, want 2", n)
	}

	if n, horizon := db.GCVersionsBelow(5); n != 1 || horizon != 5 {
		t.Fatalf("GCVersionsBelow(5) collected %d at horizon %d, want 1 at 5", n, horizon)
	}
	if _, _, _, ok := tbl.getVersion(2); ok {
		t.Fatal("the version that died at 5 was not collected")
	}
	snap, err := db.OpenSnapshot(6)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	rel, err := snap.Scan("r", nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]bool{}
	for _, r := range rel.Rows {
		ids[r.Tuple[0].AsInt()] = true
	}
	// seedRows gave rowid k the id k-1: rowid 1 (died at 7) is id 0.
	if len(ids) != 3 || !ids[0] || ids[1] {
		t.Fatalf("snapshot at 6 sees ids %v, want {0, 2, 3}", ids)
	}
	if n := tbl.DeadVersions(); n != 1 {
		t.Fatalf("dead versions %d after partial GC, want 1", n)
	}
}

func TestGCSkipsStaleEntries(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	db.CreateIndex("r", "id")
	seedRows(t, db, "r", 3)
	tbl, _ := db.Table("r")
	db.tm.Recover(5)

	// A dead version that was physically removed before GC.
	tbl.stampDead(1, 4)
	if row := tbl.remove(1); row == nil {
		t.Fatal("remove found no row")
	}
	// A dead version removed and then reinstated as a live row at the
	// same rowid.
	tbl.stampDead(2, 5)
	row := tbl.remove(2)
	tbl.putAt(2, row)
	if n := tbl.DeadVersions(); n != 0 {
		t.Fatalf("dead versions %d after remove and putAt, want 0", n)
	}

	if n, _ := db.GCVersions(); n != 0 {
		t.Fatalf("GC collected %d stale entries, want 0", n)
	}
	if len(tbl.deadQ) != 0 {
		t.Fatalf("%d stale entries left queued", len(tbl.deadQ))
	}
	if got := tbl.get(2); got == nil || !got.Equal(row) {
		t.Fatalf("reinstated row lost: got %v, want %v", got, row)
	}
	if tbl.Len() != 2 {
		t.Fatalf("heap holds %d rows, want 2", tbl.Len())
	}
}

func TestGCReplicatedDeletes(t *testing.T) {
	db, err := Open(Config{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.CreateTable("r", ordersSchema())
	db.CreateIndex("r", "id")
	ins := []Write{{Table: "r", Row: orderRow(1), Count: 1}, {Table: "r", Row: orderRow(2), Count: 1}}
	if err := db.ApplyReplicated(1, ins); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyReplicated(2, []Write{{Table: "r", Row: orderRow(1), Count: -1}}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("r")
	if n := tbl.DeadVersions(); n != 1 {
		t.Fatalf("dead versions %d after a replicated delete, want 1", n)
	}
	if n, _ := db.GCVersions(); n != 1 {
		t.Fatalf("GC collected %d replicated deletes, want 1", n)
	}
	if tbl.DeadVersions() != 0 || tbl.Len() != 1 {
		t.Fatalf("after GC: dead %d, heap %d rows; want 0, 1", tbl.DeadVersions(), tbl.Len())
	}
	assertNoCommittedDead(t, tbl)
}

func TestGCCollectsEveryCommittedDelete(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	db.CreateIndex("r", "id")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		tx := db.Begin()
		var err error
		if i > 10 && rng.Intn(3) == 0 {
			lo := tuple.Int(int64(rng.Intn(i)))
			_, err = tx.DeleteWhere("r", relalg.ColConst{Col: 0, Op: relalg.OpGE, Val: lo}, 1+rng.Intn(3))
		} else {
			err = tx.Insert("r", orderRow(int64(i)))
		}
		mustExec(t, tx, err)
		if rng.Intn(8) == 0 {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(20) == 0 {
			db.GCVersionsBelow(db.StableCSN() - relalg.CSN(rng.Intn(5)))
		}
	}
	tbl, _ := db.Table("r")
	db.GCVersions()
	if n := tbl.DeadVersions(); n != 0 {
		t.Fatalf("dead versions %d after GC with no open snapshot, want 0", n)
	}
	assertNoCommittedDead(t, tbl)
}

// TestGCCostIndependentOfHeapSize: a GC pass with nothing to collect
// allocates the same at 1k and at 20k live rows (it reads no heap row).
func TestGCCostIndependentOfHeapSize(t *testing.T) {
	allocs := func(rows int) float64 {
		db := testDB(t)
		db.CreateTable("r", ordersSchema())
		tbl, _ := db.Table("r")
		for i := 0; i < rows; i++ {
			tbl.putCommitted(orderRow(int64(i)))
		}
		return testing.AllocsPerRun(20, func() { db.GCVersions() })
	}
	small, large := allocs(1000), allocs(20000)
	if small != large {
		t.Fatalf("GC allocs/op: %.0f at 1k rows, %.0f at 20k rows; want equal", small, large)
	}
}
