package rollingjoin

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/wal"
)

// TestFoldReclaimsDeltaPrefix drives a view to its high-water mark,
// folds, and checks the delta prefix actually shrank while the view
// still answers point-in-time refreshes above the fold line exactly.
func TestFoldReclaimsDeltaPrefix(t *testing.T) {
	db := newTestDB(t, Options{})
	if _, err := db.Update(func(tx *Tx) error {
		for _, it := range crashItems {
			if err := tx.Insert("items", Str(it.name), Int(it.price)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last CSN
	for i := 0; i < 20; i++ {
		last, err = db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	view.WaitForHWM(last)
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}

	d, _ := db.Engine().Delta("orders")
	before := d.Len()
	if err := db.Fold(); err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got >= before {
		t.Fatalf("fold left orders delta at %d rows (was %d)", got, before)
	}
	st := db.Engine().Stats()
	if st.Compactions == 0 || st.FoldedRows == 0 {
		t.Fatalf("fold counters not bumped: compactions=%d folded=%d", st.Compactions, st.FoldedRows)
	}

	// Commits above the fold line: the view must still roll to any CSN in
	// (matTime, hwm], one commit at a time, with exact cardinality.
	var mids []CSN
	for i := 20; i < 30; i++ {
		csn, err := db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
		if err != nil {
			t.Fatal(err)
		}
		mids = append(mids, csn)
	}
	view.WaitForHWM(mids[len(mids)-1])
	for i, mid := range mids {
		if err := view.RefreshTo(mid); err != nil {
			t.Fatalf("point-in-time refresh to %d after fold: %v", mid, err)
		}
		if got, want := view.Cardinality(), int64(21+i); got != want {
			t.Fatalf("view at csn %d has %d rows, want %d", mid, got, want)
		}
	}
	full, err := db.Query(orderPricesSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := multiset(view.Rows()), multiset(full.Rows); !multisetsEqual(got, want) {
		t.Fatalf("view diverged from recomputation after fold:\n view: %v\n full: %v", got, want)
	}
}

// TestBackgroundFoldBoundsCardinality runs the low-priority fold job
// against a sustained insert stream and checks delta cardinality stays
// bounded instead of tracking total ingest, for a join view and for an
// aggregate over it.
func TestBackgroundFoldBoundsCardinality(t *testing.T) {
	db := newTestDB(t, Options{FoldDeltas: true})
	if _, err := db.Update(func(tx *Tx) error {
		for _, it := range crashItems {
			if err := tx.Insert("items", Str(it.name), Int(it.price)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := db.DefineAggregate(AggSpec{
		Name:    "revenue",
		Source:  view.Name(),
		GroupBy: []string{"item"},
		Aggs:    []Agg{{Func: AggCount}, {Func: AggSum, Column: "price"}},
	}, Maintain{AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var last CSN
	for i := 0; i < n; i++ {
		last, err = db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	view.WaitForHWM(last)
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := agg.CatchUp(last); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Give the background job a chance to fold behind the refreshed view.
	// A pass notes its folded rows when it ends, after it has pruned, so
	// wait for the accounting as well as the shrink.
	d, _ := db.Engine().Delta("orders")
	deadline := time.Now().Add(5 * time.Second)
	for d.Len() >= n || db.Engine().Stats().FoldedRows == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background fold never reclaimed or never accounted it: orders delta at %d rows after %d inserts, FoldedRows %d",
				d.Len(), n, db.Engine().Stats().FoldedRows)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The aggregate emits a group change per commit (2n-3 rows in all);
	// the fold job must reclaim its applied prefix too.
	for agg.Stats().DeltaRowsPending >= n {
		if time.Now().After(deadline) {
			t.Fatalf("background fold never reclaimed: aggregate delta at %d rows after %d inserts", agg.Stats().DeltaRowsPending, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Everything at or below the aggregate's MatTime is applied and has
	// no downstream reader, so an explicit prune leaves nothing pending.
	agg.PruneApplied()
	if pending := agg.Stats().DeltaRowsPending; pending != 0 {
		t.Fatalf("aggregate delta at %d rows after PruneApplied at MatTime %d", pending, agg.MatTime())
	}
	// Correctness is untouched: view and aggregate == recomputation.
	full, err := db.Query(orderPricesSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := multiset(view.Rows()), multiset(full.Rows); !multisetsEqual(got, want) {
		t.Fatalf("view diverged under background folding:\n view: %v\n full: %v", got, want)
	}
	wantCount := make(map[string]int64)
	wantSum := make(map[string]float64)
	for _, r := range full.Rows {
		wantCount[r[1].AsString()]++
		wantSum[r[1].AsString()] += float64(r[3].AsInt())
	}
	rows := agg.Rows()
	if len(rows) != len(wantCount) {
		t.Fatalf("aggregate has %d groups, recomputation %d", len(rows), len(wantCount))
	}
	for _, r := range rows {
		item := r[0].AsString()
		if r[1].AsInt() != wantCount[item] || r[2].AsFloat() != wantSum[item] {
			t.Fatalf("aggregate group %s = (%d, %v), recomputation (%d, %v)", item, r[1].AsInt(), r[2].AsFloat(), wantCount[item], wantSum[item])
		}
	}
}

// TestIncrementalCheckpointChainRoundTrip writes a FULL + DELTA chain
// across ingest batches, crashes cleanly, and restores through the chain
// plus the log suffix.
func TestIncrementalCheckpointChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	chainDir := filepath.Join(dir, "chain")

	db, err := Open(Options{WALPath: walPath, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	crashCatalog(t, db)
	db.Update(func(tx *Tx) error {
		for _, it := range crashItems {
			tx.Insert("items", Str(it.name), Int(it.price))
		}
		return nil
	})
	if _, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 4}); err != nil {
		t.Fatal(err)
	}
	ingest := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := db.Update(func(tx *Tx) error {
				return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 8)
	if err := db.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	ingest(8, 16)
	if err := db.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	ingest(16, 24)
	if err := db.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	ingest(24, 30) // log-suffix-only writes
	db.Close()

	links, err := readChainDir(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 3 {
		t.Fatalf("chain has %d links, want 3", len(links))
	}
	if links[0].Kind != wal.ChainFull {
		t.Fatal("first link must be FULL")
	}
	for i, l := range links[1:] {
		if l.Kind != wal.ChainDelta {
			t.Fatalf("link %d is not DELTA", i+2)
		}
	}

	db2, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	crashCatalog(t, db2)
	restored, err := db2.RestoreChain(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	if restored < CSN(links[2].To) {
		t.Fatalf("restored CSN %d precedes chain tail %d", restored, links[2].To)
	}
	view, err := db2.DefineView(orderPricesSpec(), Maintain{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.CatchUp(db2.LastCSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := view.Cardinality(); got != 30 {
		t.Fatalf("view after chain restore: %d rows, want 30", got)
	}
	full, err := db2.Query(orderPricesSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := multiset(view.Rows()), multiset(full.Rows); !multisetsEqual(got, want) {
		t.Fatalf("view diverged after chain restore:\n view: %v\n full: %v", got, want)
	}
	// The chain keeps extending from the restored state.
	if err := db2.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	if links, err = readChainDir(chainDir); err != nil || len(links) != 4 {
		t.Fatalf("post-restore chain: %d links (%v), want 4", len(links), err)
	}
}

// TestCheckpointPinKeepsChainIncremental checks the two halves of the
// shared-horizon contract: the checkpoint pin stops folding from pruning
// past the last link (so the next link can stay a DELTA), and without a
// pin an aggressive fold forces the chain to restart with a FULL link
// rather than emit an unreplayable window.
func TestCheckpointPinKeepsChainIncremental(t *testing.T) {
	dir := t.TempDir()
	chainDir := filepath.Join(dir, "chain")
	db, err := Open(Options{WALPath: filepath.Join(dir, "db.wal"), SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	crashCatalog(t, db)
	db.Update(func(tx *Tx) error {
		for _, it := range crashItems {
			tx.Insert("items", Str(it.name), Int(it.price))
		}
		return nil
	})
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last CSN
	for i := 0; i < 10; i++ {
		last, _ = db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
	}
	if err := db.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	pin := db.LastCSN()

	// Advance the view well past the pin, then fold hard. The ledger floor
	// must clamp pruning at the pin.
	for i := 10; i < 30; i++ {
		last, _ = db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
	}
	view.WaitForHWM(last)
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Fold(); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := db.Engine().Delta("orders")
	if pt := d.PrunedThrough(); pt > relalg.CSN(pin) {
		t.Fatalf("fold pruned orders delta through %d, past checkpoint pin %d", pt, pin)
	}
	// Because the window (pin, now] is intact, the next link is a DELTA.
	if err := db.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	links, err := readChainDir(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 || links[1].Kind != wal.ChainDelta {
		t.Fatalf("want FULL+DELTA after pinned fold, got %d links (tail kind %d)", len(links), links[len(links)-1].Kind)
	}

	// Now break the contract on purpose: drop the pin and fold. Pruning
	// may cross the old link boundary, and the chain must self-heal by
	// restarting with a FULL link instead of writing a delta it cannot
	// replay from.
	db.Engine().Horizons().Unpin("checkpoint")
	for i := 30; i < 50; i++ {
		last, _ = db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
	}
	view.WaitForHWM(last)
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Fold(); err != nil {
			t.Fatal(err)
		}
	}
	tail := links[1]
	d, _ = db.Engine().Delta("orders")
	if pt := d.PrunedThrough(); pt <= relalg.CSN(tail.To) {
		t.Skipf("fold did not cross the link boundary (pruned %d <= %d); contract not exercised", pt, tail.To)
	}
	if err := db.CheckpointIncremental(chainDir); err != nil {
		t.Fatal(err)
	}
	links, err = readChainDir(chainDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 1 || links[0].Kind != wal.ChainFull {
		t.Fatalf("chain should restart FULL after unpinned fold, got %d links", len(links))
	}
}

// TestFoldRespectsOpenSnapshot keeps an engine snapshot open across a
// fold: the ledger floor must hold pruning at the snapshot's CSN until
// it closes.
func TestFoldRespectsOpenSnapshot(t *testing.T) {
	db := newTestDB(t, Options{})
	db.Update(func(tx *Tx) error {
		for _, it := range crashItems {
			tx.Insert("items", Str(it.name), Int(it.price))
		}
		return nil
	})
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db.Engine().OpenSnapshot(relalg.NullTS)
	if err != nil {
		t.Fatal(err)
	}
	asOf := snap.AsOf()
	var last CSN
	for i := 0; i < 20; i++ {
		last, _ = db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Str(crashItems[i%3].name))
		})
	}
	view.WaitForHWM(last)
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := db.Fold(); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Engine().Delta("orders")
	if pt := d.PrunedThrough(); pt > asOf {
		t.Fatalf("fold pruned through %d past open snapshot at %d", pt, asOf)
	}
	snap.Close()
	if err := db.Fold(); err != nil {
		t.Fatal(err)
	}
	if pt := d.PrunedThrough(); pt <= asOf {
		t.Fatalf("fold still held at %d after snapshot close", pt)
	}
}
