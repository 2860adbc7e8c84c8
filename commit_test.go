package rollingjoin

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/wal"
)

// TestReadsMintNoCSN: only client commits mint CSNs. Read-only queries
// and the propagation steps that catch a view up commit quietly on a
// leader: LastCSN, the log size and, under SyncOnCommit, the device's sync
// count all stay where the last client commit left them.
func TestReadsMintNoCSN(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	fdev := fault.NewDevice(wal.NewMemDevice())
	db := newTestDB(t, Options{Device: fdev, SyncOnCommit: true})
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(func(tx *Tx) error { return tx.Insert("items", Str("ball"), Int(5)) }); err != nil {
		t.Fatal(err)
	}
	last, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(1), Str("ball")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Source().WaitProgress(last); err != nil {
		t.Fatal(err)
	}

	// A passing action on the device's sync failpoint counts its syncs.
	fault.Set(fault.PointDevSync, func() error { return nil })
	size := db.Engine().Log().Size()
	for i := 0; i < 10; i++ {
		res, err := db.Query(orderPricesSpec())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("query %d: %d rows, want 1", i, len(res.Rows))
		}
	}
	for steps := 0; view.HWM() < last; steps++ {
		if steps == 10 {
			t.Fatalf("ten propagation steps left the HWM at %d", view.HWM())
		}
		if err := view.PropagateStep(); err != nil {
			t.Fatal(err)
		}
	}
	if view.Stats().ForwardQueries == 0 {
		t.Fatal("propagation ran no forward query")
	}
	if got := db.LastCSN(); got != last {
		t.Fatalf("LastCSN moved from %d to %d", last, got)
	}
	if got := db.Engine().Log().Size(); got != size {
		t.Fatalf("log grew from %d to %d bytes", size, got)
	}
	if n := fault.Evals(fault.PointDevSync); n != 0 {
		t.Fatalf("queries and propagation synced the log %d times", n)
	}
}
