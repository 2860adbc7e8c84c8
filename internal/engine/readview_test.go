package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// seedRows commits n single-row transactions and returns the last CSN.
func seedRows(t *testing.T, db *DB, table string, n int) relalg.CSN {
	t.Helper()
	var last relalg.CSN
	for i := 0; i < n; i++ {
		tx := db.Begin()
		if err := tx.Insert(table, tuple.Tuple{tuple.Int(int64(i)), tuple.String_("x")}); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		csn, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		last = csn
	}
	return last
}

func TestSnapshotSeesExactCommitPrefix(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	last := seedRows(t, db, "r", 5)

	// A snapshot at every historical CSN sees exactly that many rows.
	// (CSN 0 is not addressable: relalg.NullTS doubles as "latest stable".)
	for asOf := relalg.CSN(1); asOf <= last; asOf++ {
		snap, err := db.OpenSnapshot(asOf)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := snap.Scan("r", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != int(asOf) {
			t.Fatalf("snapshot at %d sees %d rows", asOf, rel.Len())
		}
		snap.Close()
	}

	// Deletes are versioned too: a delete at CSN d keeps the row visible to
	// snapshots below d.
	tx := db.Begin()
	tx.DeleteWhere("r", relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(0)}, 0)
	d, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.OpenSnapshot(d - 1)
	after, _ := db.OpenSnapshot(d)
	defer before.Close()
	defer after.Close()
	rb, _ := before.Scan("r", nil)
	ra, _ := after.Scan("r", nil)
	if rb.Len() != 5 || ra.Len() != 4 {
		t.Fatalf("delete visibility: before=%d after=%d", rb.Len(), ra.Len())
	}
}

func TestSnapshotBelowGCHorizonRefused(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	seedRows(t, db, "r", 3)

	tx := db.Begin()
	tx.DeleteWhere("r", nil, 0)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	collected, horizon := db.GCVersions()
	if collected != 3 {
		t.Fatalf("collected %d versions, want 3", collected)
	}
	if _, err := db.OpenSnapshot(horizon - 1); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("snapshot below GC horizon: err=%v", err)
	}
	// At or above the horizon stays valid.
	snap, err := db.OpenSnapshot(horizon)
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
}

func TestSnapshotPinsVersionsAgainstGC(t *testing.T) {
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	last := seedRows(t, db, "r", 3)

	// Pin a snapshot at the pre-delete state, then delete everything.
	pin, err := db.OpenSnapshot(last)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	tx.DeleteWhere("r", nil, 0)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// GC must clamp to the pinned AsOf and keep the dead versions.
	if n, _ := db.GCVersions(); n != 0 {
		t.Fatalf("GC collected %d versions under an active snapshot", n)
	}
	rel, err := pin.Scan("r", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("pinned snapshot sees %d rows after delete+GC, want 3", rel.Len())
	}
	pin.Close()

	if n, _ := db.GCVersions(); n != 3 {
		t.Fatalf("GC after Close collected %d versions, want 3", n)
	}
	if db.DeadVersionsRetained() != 0 {
		t.Fatal("dead versions retained after GC")
	}
}

func TestSnapshotRacingPublish(t *testing.T) {
	// Writers commit multi-row transactions while readers open latest-stable
	// snapshots: every snapshot must observe an exact prefix of the commit
	// order, i.e. a row count that is a multiple of the transaction size.
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	const (
		writers   = 4
		txPerW    = 50
		rowsPerTx = 3
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	torn := make(chan int, 1)
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := db.OpenSnapshot(relalg.NullTS)
			if err != nil {
				return
			}
			rel, err := snap.Scan("r", nil)
			snap.Close()
			if err != nil {
				return
			}
			if rel.Len()%rowsPerTx != 0 {
				select {
				case torn <- rel.Len():
				default:
				}
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < txPerW; i++ {
				tx := db.Begin()
				for j := 0; j < rowsPerTx; j++ {
					tx.Insert("r", tuple.Tuple{tuple.Int(int64(w*txPerW + i)), tuple.String_("x")})
				}
				tx.Commit()
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case n := <-torn:
		t.Fatalf("snapshot observed a torn commit: %d rows (not a multiple of %d)", n, rowsPerTx)
	default:
	}

	snap, _ := db.OpenSnapshot(relalg.NullTS)
	defer snap.Close()
	rel, _ := snap.Scan("r", nil)
	if rel.Len() != writers*txPerW*rowsPerTx {
		t.Fatalf("final snapshot sees %d rows, want %d", rel.Len(), writers*txPerW*rowsPerTx)
	}
}

func TestSnapshotUnaffectedByDeltaPrune(t *testing.T) {
	// Pruning applied view-delta windows (Applier.PruneApplied →
	// DeltaTable.PruneThrough) must not disturb base-table snapshots: the
	// two retention mechanisms are independent.
	db := testDB(t)
	db.CreateTable("r", ordersSchema())
	d, err := db.CreateDelta("r")
	if err != nil {
		t.Fatal(err)
	}
	last := seedRows(t, db, "r", 4)
	for i := relalg.CSN(1); i <= last; i++ {
		d.Append(i, 1, tuple.Tuple{tuple.Int(int64(i)), tuple.String_("x")})
	}
	snap, err := db.OpenSnapshot(last - 2)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	if pruned := d.PruneThrough(last); pruned != int(last) {
		t.Fatalf("pruned %d delta rows, want %d", pruned, last)
	}
	if d.PrunedThrough() != last {
		t.Fatalf("pruned-through %d, want %d", d.PrunedThrough(), last)
	}
	rel, err := snap.Scan("r", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != int(last-2) {
		t.Fatalf("snapshot sees %d rows after delta prune, want %d", rel.Len(), last-2)
	}
}

func TestSnapshotAfterRecovery(t *testing.T) {
	dev := wal.NewMemDevice()
	db, err := Open(Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("r", ordersSchema())
	tx := db.Begin()
	tx.Insert("r", tuple.Tuple{tuple.Int(1), tuple.String_("keep")})
	tx.Insert("r", tuple.Tuple{tuple.Int(2), tuple.String_("gone")})
	tx.Commit()
	tx2 := db.Begin()
	tx2.DeleteWhere("r", relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(2)}, 0)
	tx2.Commit()
	db.Close()

	db2, err := Open(Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.CreateTable("r", ordersSchema())
	csn, err := db2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if db2.StableCSN() != csn {
		t.Fatalf("stable CSN %d after recovery, want %d", db2.StableCSN(), csn)
	}
	// Replay compacts history to the final state (born 0); a snapshot at
	// the recovered CSN sees exactly the committed current state.
	snap, err := db2.OpenSnapshot(csn)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	rel, err := snap.Scan("r", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Rows[0].Tuple[0].AsInt() != 1 {
		t.Fatalf("recovered snapshot state: %s", rel)
	}
	// And writes after recovery version normally.
	tx3 := db2.Begin()
	tx3.Insert("r", tuple.Tuple{tuple.Int(3), tuple.String_("new")})
	c3, err := tx3.Commit()
	if err != nil {
		t.Fatal(err)
	}
	old, _ := db2.OpenSnapshot(c3 - 1)
	cur, _ := db2.OpenSnapshot(c3)
	defer old.Close()
	defer cur.Close()
	ro, _ := old.Scan("r", nil)
	rc, _ := cur.Scan("r", nil)
	if ro.Len() != 1 || rc.Len() != 2 {
		t.Fatalf("post-recovery versioning: old=%d cur=%d", ro.Len(), rc.Len())
	}
}
