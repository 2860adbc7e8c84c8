package rollingjoin

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestTransientApplyErrorRetriesThroughBackoff: a few injected I/O errors
// on the apply path must ride the scheduler's backoff and converge without
// fail-stopping — the process survives transient EIO.
func TestTransientApplyErrorRetriesThroughBackoff(t *testing.T) {
	defer fault.Reset()
	db := newTestDB(t, Options{})
	db.Update(func(tx *Tx) error { return tx.Insert("items", Str("ball"), Int(5)) })
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 2, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(fault.PointApply, fault.ErrTimes(3, fault.ErrInjected))

	var last CSN
	for i := 0; i < 8; i++ {
		last, _ = db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(i)), Str("ball")) })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := view.WaitForHWMContext(ctx, last); err != nil {
		t.Fatalf("propagation stalled: %v", err)
	}
	// The auto-refresh job must work through the injected failures.
	deadline := time.Now().Add(10 * time.Second)
	for view.MatTime() < view.HWM() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if view.MatTime() < view.HWM() {
		t.Fatalf("apply never converged: mat %d hwm %d (err %v)", view.MatTime(), view.HWM(), view.Err())
	}
	if err := view.Err(); err != nil {
		t.Fatalf("transient errors fail-stopped the job: %v", err)
	}
	if fault.Trips(fault.PointApply) < 3 {
		t.Fatalf("injected only %d times", fault.Trips(fault.PointApply))
	}
	if st := db.sched.Stats(); st.Backoffs < 1 {
		t.Fatalf("expected backoff retries, saw %d", st.Backoffs)
	}
	if view.Cardinality() != 8 {
		t.Fatalf("view rows %d after convergence", view.Cardinality())
	}
}

// TestPersistentApplyErrorFailStopsIntoViewStats: a hard failure exhausts
// the retry budget, fail-stops the job (not the process), surfaces the
// error in ViewStats, and a restart after the fault clears resumes cleanly.
func TestPersistentApplyErrorFailStopsIntoViewStats(t *testing.T) {
	defer fault.Reset()
	db := newTestDB(t, Options{})
	db.Update(func(tx *Tx) error { return tx.Insert("items", Str("ball"), Int(5)) })
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 2, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(fault.PointApply, fault.ErrAlways(fault.ErrInjected))

	var last CSN
	for i := 0; i < 4; i++ {
		last, _ = db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(i)), Str("ball")) })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := view.WaitForHWMContext(ctx, last); err != nil {
		t.Fatalf("propagation (unfaulted) stalled: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for view.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := view.Stats().MaintenanceErr; !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("ViewStats.MaintenanceErr = %v, want injected error", err)
	}
	// Other commits still work: the failure is contained to the one job.
	if _, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(99), Str("ball")) }); err != nil {
		t.Fatalf("database unusable after job fail-stop: %v", err)
	}

	// Clear the fault and restart maintenance: it resumes from the last
	// good position.
	fault.Reset()
	if err := view.StopPropagation(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("StopPropagation should report the terminal error, got %v", err)
	}
	view.StartPropagation()
	if err := view.CatchUp(db.LastCSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := view.Err(); err != nil {
		t.Fatalf("error survived restart: %v", err)
	}
	if view.Cardinality() != 5 {
		t.Fatalf("view rows %d after recovery", view.Cardinality())
	}
}

// TestRestoreRewiresPropagationWakeup: after Restore on a reopened
// database, a commit must wake propagation through the capture OnProgress →
// scheduler notification chain — the event-driven wait below would time out
// if the re-created capture were not re-wired.
func TestRestoreRewiresPropagationWakeup(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	ckpt := filepath.Join(dir, "snap.ckpt")

	db, err := Open(Options{WALPath: walPath, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	crashCatalog(t, db)
	db.Update(func(tx *Tx) error { return tx.Insert("items", Str("ball"), Int(5)) })
	if _, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(i)), Str("ball")) })
	}
	if err := db.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(Options{WALPath: walPath, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	crashCatalog(t, db2)
	if _, err := db2.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	view, err := db2.DefineView(orderPricesSpec(), Maintain{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The post-restore commit must propagate without any polling fallback:
	// WaitForHWMContext parks until a scheduler notification arrives.
	var last CSN
	for i := 0; i < 4; i++ {
		last, _ = db2.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(10+i)), Str("ball")) })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := view.WaitForHWMContext(ctx, last); err != nil {
		t.Fatalf("post-restore commit did not wake propagation: %v", err)
	}
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if view.Cardinality() != 8 {
		t.Fatalf("view rows %d after restore + post-restore commits", view.Cardinality())
	}
	// Propagation after restore must still agree with recomputation.
	full, err := db2.Query(orderPricesSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !multisetsEqual(multiset(view.Rows()), multiset(full.Rows)) {
		t.Fatal("view diverged from full recomputation after restore")
	}
}

// TestFailedRestoreLeavesCaptureUsable: a Restore that fails (missing
// snapshot) must not consume the lazy capture start — views defined
// afterwards still get a working capture process. This regressed silently
// before: the old code claimed the start before opening the snapshot file.
func TestFailedRestoreLeavesCaptureUsable(t *testing.T) {
	db := newTestDB(t, Options{})
	if _, err := db.Restore(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing snapshot should fail")
	}
	db.Update(func(tx *Tx) error { return tx.Insert("items", Str("ball"), Int(5)) })
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	last, _ := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(1), Str("ball")) })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := view.WaitForHWMContext(ctx, last); err != nil {
		t.Fatalf("capture dead after failed restore: %v", err)
	}
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	if view.Cardinality() != 1 {
		t.Fatalf("view rows %d", view.Cardinality())
	}
}
