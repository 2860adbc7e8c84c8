package rollingjoin_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	rollingjoin "repro"
	"repro/internal/fault"
	"repro/internal/repl"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// replSchema creates the replicated tables and view — identical DDL on
// leader and follower, since only committed data travels on the wire.
func replSchema(t *testing.T, db *rollingjoin.DB) *rollingjoin.View {
	t.Helper()
	if err := db.CreateTable("users",
		rollingjoin.Col("id", rollingjoin.TypeInt),
		rollingjoin.Col("name", rollingjoin.TypeString),
	); err != nil {
		t.Fatalf("create users: %v", err)
	}
	if err := db.CreateTable("orders",
		rollingjoin.Col("uid", rollingjoin.TypeInt),
		rollingjoin.Col("amount", rollingjoin.TypeInt),
	); err != nil {
		t.Fatalf("create orders: %v", err)
	}
	v, err := db.DefineView(rollingjoin.ViewSpec{
		Name:   "big",
		Tables: []string{"users", "orders"},
		Joins: []rollingjoin.Join{{
			LeftTable: "users", LeftColumn: "id",
			RightTable: "orders", RightColumn: "uid",
		}},
		Output: []rollingjoin.OutCol{
			{Table: "users", Column: "name"},
			{Table: "orders", Column: "amount"},
		},
	}, rollingjoin.Maintain{Interval: 1})
	if err != nil {
		t.Fatalf("define view: %v", err)
	}
	return v
}

func replRows(t *testing.T, v *rollingjoin.View, asOf rollingjoin.CSN) []string {
	t.Helper()
	rows, err := v.MaterializeAt(asOf)
	if err != nil {
		t.Fatalf("materialize %s at %d: %v", v.Name(), asOf, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(tuple.EncodeRow(nil, tuple.Tuple(r)))
	}
	sort.Strings(out)
	return out
}

func replWait(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func replCommit(t *testing.T, db *rollingjoin.DB, i int) {
	t.Helper()
	if _, err := db.Update(func(tx *rollingjoin.Tx) error {
		if err := tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str(fmt.Sprintf("u%d", i))); err != nil {
			return err
		}
		return tx.Insert("orders", rollingjoin.Int(int64(i)), rollingjoin.Int(int64(i*3)))
	}); err != nil {
		t.Fatalf("commit %d: %v", i, err)
	}
}

// converge quiesces the leader, then drives the follower to the same
// instant and asserts byte-equal view contents.
func converge(t *testing.T, leader, follower *rollingjoin.DB, lv, fv *rollingjoin.View) {
	t.Helper()
	if _, err := lv.Refresh(); err != nil {
		t.Fatalf("leader refresh: %v", err)
	}
	target := leader.LastCSN()
	hwm := lv.HWM()
	replWait(t, "follower replay", 15*time.Second, func() bool {
		return follower.AppliedCSN() >= target
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := fv.WaitForHWMContext(ctx, hwm); err != nil {
		t.Fatalf("follower HWM %d (applied %d, want %d): %v", fv.HWM(), follower.AppliedCSN(), hwm, err)
	}
	want := replRows(t, lv, hwm)
	got := replRows(t, fv, hwm)
	if len(want) != len(got) {
		t.Fatalf("cardinality at %d: leader %d follower %d", hwm, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d at %d differs:\nleader   %q\nfollower %q", i, hwm, want[i], got[i])
		}
	}
}

// TestFailoverLeaderCrash kills a leader mid-ship and restarts it from its
// crash image: the follower must retain its consistent prefix through the
// outage, reconnect, and converge with the recovered leader — including
// commits made only after the restart.
func TestFailoverLeaderCrash(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	fdev := fault.NewDevice(wal.NewMemDevice())
	leader, err := rollingjoin.Open(rollingjoin.Options{Device: fdev, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	lv := replSchema(t, leader)
	srv := httptest.NewServer(repl.NewServer(leader).Handler())

	follower, err := rollingjoin.Open(rollingjoin.Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fv := replSchema(t, follower)
	tailer := repl.NewTailer(follower, srv.URL)
	tailer.Start()

	for i := 0; i < 25; i++ {
		replCommit(t, leader, i)
	}
	preCrash := leader.LastCSN()
	replWait(t, "mid-ship progress", 15*time.Second, func() bool {
		return follower.AppliedCSN() > 0
	})

	// Crash: freeze the device so nothing lands after the crash point,
	// capture the image a reopen would observe, then tear the serving
	// stack down abruptly under the still-running tailer.
	fdev.Freeze()
	img, err := fdev.CrashImage(-1)
	if err != nil {
		t.Fatalf("crash image: %v", err)
	}
	srv.CloseClientConnections()
	srv.Close()
	leader.Close()
	tailer.Stop()
	if err := tailer.Err(); err != nil {
		t.Fatalf("tailer failed during outage: %v", err)
	}
	applied := follower.AppliedCSN()

	// Restart the leader from the crash image: recreate the catalog, replay
	// the log, and serve again.
	leader2, err := rollingjoin.Open(rollingjoin.Options{
		Device:       wal.NewMemDeviceFrom(img),
		SyncOnCommit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	if err := leader2.CreateTable("users",
		rollingjoin.Col("id", rollingjoin.TypeInt),
		rollingjoin.Col("name", rollingjoin.TypeString),
	); err != nil {
		t.Fatal(err)
	}
	if err := leader2.CreateTable("orders",
		rollingjoin.Col("uid", rollingjoin.TypeInt),
		rollingjoin.Col("amount", rollingjoin.TypeInt),
	); err != nil {
		t.Fatal(err)
	}
	recovered, err := leader2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if recovered < preCrash {
		t.Fatalf("recovered CSN %d < pre-crash %d", recovered, preCrash)
	}
	// The follower's prefix must sit within the recovered history — it
	// never applied a commit the crash image lost.
	if applied > recovered {
		t.Fatalf("follower applied %d beyond recovered CSN %d", applied, recovered)
	}
	lv2, err := leader2.DefineView(rollingjoin.ViewSpec{
		Name:   "big",
		Tables: []string{"users", "orders"},
		Joins: []rollingjoin.Join{{
			LeftTable: "users", LeftColumn: "id",
			RightTable: "orders", RightColumn: "uid",
		}},
		Output: []rollingjoin.OutCol{
			{Table: "users", Column: "name"},
			{Table: "orders", Column: "amount"},
		},
	}, rollingjoin.Maintain{Interval: 1})
	if err != nil {
		t.Fatalf("redefine view: %v", err)
	}
	srv2 := httptest.NewServer(repl.NewServer(leader2).Handler())
	defer srv2.Close()

	tailer2 := repl.NewTailer(follower, srv2.URL)
	tailer2.Start()
	defer tailer2.Stop()

	// Post-failover commits must reach the follower too.
	for i := 25; i < 40; i++ {
		replCommit(t, leader2, i)
	}
	converge(t, leader2, follower, lv2, fv)
	if err := tailer2.Err(); err != nil {
		t.Fatalf("tailer after failover: %v", err)
	}
	_ = lv
}

// TestCloseDuringActiveCapture is the shutdown-ordering regression test:
// Close must drain the capture process before closing the engine (and its
// log). Pre-fix, the engine closed first, killing capture mid-read — the
// tail of the commit history never reached the unit-of-work table and the
// race detector flagged the teardown.
func TestCloseDuringActiveCapture(t *testing.T) {
	db, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replSchema(t, db)
	for i := 0; i < 500; i++ {
		if _, err := db.Update(func(tx *rollingjoin.Tx) error {
			return tx.Insert("orders", rollingjoin.Int(int64(i)), rollingjoin.Int(1))
		}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// Close immediately: capture is still draining the log behind the
	// writers.
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	last := db.LastCSN()
	uow := db.UOW()
	if uow == nil {
		t.Fatal("no unit-of-work table after close")
	}
	csn, ok := uow.CSNAtOrBefore(time.Now().Add(time.Hour))
	if !ok || csn != last {
		t.Fatalf("capture drained to %d (ok=%v), engine committed through %d", csn, ok, last)
	}
}

// TestCSNAtNoCommits is the nil-UOW regression test: time-travel lookups
// on a database with no commits must return ErrNoCommits, not panic.
func TestCSNAtNoCommits(t *testing.T) {
	db, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CSNAt(time.Now()); !errors.Is(err, rollingjoin.ErrNoCommits) {
		t.Fatalf("CSNAt on empty db: %v; want ErrNoCommits", err)
	}

	// With history, an instant before every commit still maps to nothing.
	if err := db.CreateTable("t", rollingjoin.Col("a", rollingjoin.TypeInt)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(func(tx *rollingjoin.Tx) error {
		return tx.Insert("t", rollingjoin.Int(1))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CSNAt(time.Unix(0, 0)); !errors.Is(err, rollingjoin.ErrNoCommits) {
		t.Fatalf("CSNAt(epoch): %v; want ErrNoCommits", err)
	}
	replWait(t, "capture of the commit", 5*time.Second, func() bool {
		csn, err := db.CSNAt(time.Now())
		return err == nil && csn > 0
	})
}

// TestRefreshToTimeNoCommits covers the callers of CSNAt: view refresh by
// wall time surfaces the typed error instead of panicking.
func TestRefreshToTimeNoCommits(t *testing.T) {
	db, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v := replSchema(t, db)
	if _, err := v.RefreshToTime(time.Unix(0, 0)); !errors.Is(err, rollingjoin.ErrNoCommits) {
		t.Fatalf("RefreshToTime(epoch): %v; want ErrNoCommits", err)
	}
}
