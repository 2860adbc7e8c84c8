package rollingjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/wal"
)

// The crash-recovery property suite: run a workload against a fault device,
// kill the process at an armed failpoint (freezing the device so nothing
// later becomes durable), reopen from the crash image, recover, and verify
// that every maintained view equals a full recomputation, that the HWM
// never exceeds the durable state, and that the recovered CSN is exactly
// the durable frontier (every acknowledged commit survives; at most the
// one in-flight unacknowledged commit may additionally persist).

// crashItems are the join dimension rows seeded before the failpoint arms.
var crashItems = []struct {
	name  string
	price int64
}{{"ball", 5}, {"bat", 20}, {"puck", 7}}

func crashCatalog(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateTable("orders", Col("id", TypeInt), Col("item", TypeString)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("items", Col("item", TypeString), Col("price", TypeInt)); err != nil {
		t.Fatal(err)
	}
}

// multiset folds tuples into count form for order-independent comparison.
func multiset(rows []Tuple) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[fmt.Sprintf("%v", r)]++
	}
	return m
}

func multisetsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// runCrashWorkload drives commits (and one mid-run checkpoint) against a
// fault device until the armed failpoint freezes it. It returns the crash
// image, the highest acknowledged commit, and whether a checkpoint was
// fully published before the crash.
func runCrashWorkload(t *testing.T, point string, hits int64, seed int64, extra int64, ckptPath string, optMut ...func(*Options)) (img []byte, lastAcked CSN, ckptOK bool) {
	t.Helper()
	fault.Reset()
	fdev := fault.NewDevice(wal.NewMemDevice())
	opts := Options{Device: fdev, SyncOnCommit: true}
	for _, mut := range optMut {
		mut(&opts)
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	crashCatalog(t, db)
	if csn, err := db.Update(func(tx *Tx) error {
		for _, it := range crashItems {
			if err := tx.Insert("items", Str(it.name), Int(it.price)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	} else {
		lastAcked = csn
	}

	fault.Set(point, fault.CrashOnHit(hits, fdev))
	// A failpoint on a background job (fold) can fire while the view is
	// still being defined; that is a crash like any other, recovered and
	// verified below.
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 4, AutoRefresh: true})
	if err != nil && !fdev.Frozen() {
		t.Fatal(err)
	}
	_ = view

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 60 && !fdev.Frozen(); i++ {
		if i == 30 {
			if err := db.Checkpoint(ckptPath); err == nil {
				ckptOK = true
			}
		}
		id := int64(i)
		item := crashItems[rng.Intn(len(crashItems))].name
		var csn CSN
		if i > 5 && rng.Intn(4) == 0 {
			csn, err = db.Update(func(tx *Tx) error {
				_, derr := tx.Delete("orders", "id", EQ, Int(id-3), 1)
				return derr
			})
		} else {
			csn, err = db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(id), Str(item)) })
		}
		if err != nil {
			break
		}
		lastAcked = csn
	}
	// Background points (capture replay, apply) fire on the capture or
	// scheduler goroutines; give them a moment if the workload outran them.
	deadline := time.Now().Add(5 * time.Second)
	for !fdev.Frozen() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !fdev.Frozen() {
		t.Fatalf("failpoint %s never fired (%d evals)", point, fault.Evals(point))
	}
	img, err = fdev.CrashImage(extra)
	if err != nil {
		t.Fatal(err)
	}
	fault.Reset()
	db.Close()
	return img, lastAcked, ckptOK
}

// recoverAndVerify reopens a crash image, recovers (preferring the
// checkpoint when one was published), and checks every durability property.
func recoverAndVerify(t *testing.T, img []byte, lastAcked CSN, ckptOK bool, ckptPath string) {
	t.Helper()
	db, err := Open(Options{Device: wal.NewMemDeviceFrom(img), SyncOnCommit: true})
	if err != nil {
		t.Fatalf("reopen from crash image: %v", err)
	}
	defer db.Close()
	crashCatalog(t, db)
	var recovered CSN
	if ckptOK {
		recovered, err = db.Restore(ckptPath)
	} else {
		recovered, err = db.Recover()
	}
	if err != nil {
		t.Fatalf("recovery (checkpoint=%v): %v", ckptOK, err)
	}
	// Every acknowledged commit is durable. (No tight upper bound holds:
	// background propagation transactions also consume CSNs and log commit
	// records, so the durable frontier can sit past the last workload ack.)
	if recovered < lastAcked {
		t.Fatalf("recovered CSN %d lost acked commit %d", recovered, lastAcked)
	}
	if db.LastCSN() != recovered {
		t.Fatalf("CSN counter %d != recovered %d", db.LastCSN(), recovered)
	}

	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.CatchUp(db.LastCSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Refresh(); err != nil && !errors.Is(err, ErrBackward) {
		t.Fatal(err)
	}
	if view.HWM() > db.LastCSN() {
		t.Fatalf("HWM %d exceeds durable CSN %d", view.HWM(), db.LastCSN())
	}
	full, err := db.Query(orderPricesSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, want := multiset(view.Rows()), multiset(full.Rows)
	if !multisetsEqual(got, want) {
		t.Fatalf("view diverged from full recomputation after recovery:\n view: %v\n full: %v", got, want)
	}
	// The recovered database accepts new commits and maintains the view
	// past them.
	post, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(999), Str("ball")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := view.CatchUp(post); err != nil {
		t.Fatal(err)
	}
	if _, err := view.Refresh(); err != nil {
		t.Fatal(err)
	}
	full2, err := db.Query(orderPricesSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !multisetsEqual(multiset(view.Rows()), multiset(full2.Rows)) {
		t.Fatal("view diverged after post-recovery commit")
	}
}

// TestCrashRecovery is the property suite across all eight failpoint
// classes. Hit counts are sized so each point fires mid-workload (the
// checkpoint points during the mid-run Checkpoint call); seeds vary the
// workload mix and how many unsynced tail bytes the crash image keeps.
func TestCrashRecovery(t *testing.T) {
	runs := []struct {
		point string
		hits  int64
	}{
		{fault.PointWALAppend, 25},
		{fault.PointWALSync, 10},
		{fault.PointCheckpointWrite, 1},
		{fault.PointCheckpointRename, 1},
		{fault.PointCaptureReplay, 12},
		{fault.PointApply, 2},
		{fault.PointPublish, 8},
	}
	extras := []int64{0, 5, -1}
	for _, run := range runs {
		for si, seed := range []int64{1, 2, 3} {
			name := fmt.Sprintf("%s/seed%d", run.point, seed)
			t.Run(name, func(t *testing.T) {
				defer fault.Reset()
				ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
				img, lastAcked, ckptOK := runCrashWorkload(t, run.point, run.hits, seed, extras[si], ckpt)
				recoverAndVerify(t, img, lastAcked, ckptOK, ckpt)
			})
		}
	}
}

// TestCrashRecoveryAtRestore covers the eighth point: the crash hits during
// snapshot restore itself. The first recovery attempt dies at the restore
// failpoint; a retry on a fresh device from the same image must succeed and
// still satisfy every property — restore is idempotent from the outside.
func TestCrashRecoveryAtRestore(t *testing.T) {
	defer fault.Reset()
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fault.Reset()
			ckpt := filepath.Join(t.TempDir(), "crash.ckpt")
			// Run the workload with a crash late enough that the mid-run
			// checkpoint has been published, so recovery goes through Restore.
			img, lastAcked, ckptOK := runCrashWorkload(t, fault.PointWALAppend, 120, seed, 0, ckpt)
			if !ckptOK {
				t.Fatal("workload crashed before the checkpoint published")
			}
			// First recovery attempt: crash during restore.
			dev := fault.NewDevice(wal.NewMemDeviceFrom(img))
			db, err := Open(Options{Device: dev, SyncOnCommit: true})
			if err != nil {
				t.Fatal(err)
			}
			crashCatalog(t, db)
			fault.Set(fault.PointRestore, fault.CrashOnHit(1, dev))
			if _, err := db.Restore(ckpt); !errors.Is(err, fault.ErrCrash) {
				t.Fatalf("restore should crash, got %v", err)
			}
			fault.Reset()
			db.Close()
			// Retry from the same image on a fresh device: the failed restore
			// wrote nothing durable, so the full verification still holds.
			recoverAndVerify(t, img, lastAcked, true, ckpt)
		})
	}
}

// TestMidLogCorruptionFailsRecovery: bit rot inside the durable log body is
// detected at reopen and reported with the damaged frame's offset rather
// than silently truncating away committed transactions.
func TestMidLogCorruptionFailsRecovery(t *testing.T) {
	defer fault.Reset()
	fdev := fault.NewDevice(wal.NewMemDevice())
	db, err := Open(Options{Device: fdev, SyncOnCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	crashCatalog(t, db)
	for i := 0; i < 10; i++ {
		if _, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(i)), Str("ball")) }); err != nil {
			t.Fatal(err)
		}
	}
	img, err := fdev.CrashImage(-1)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Flip one byte in the middle of the log: a fully present frame is now
	// damaged durable data.
	img[len(img)/2] ^= 0xFF
	if _, err := Open(Options{Device: wal.NewMemDeviceFrom(img), SyncOnCommit: true}); err == nil {
		t.Fatal("reopen over mid-log corruption should fail")
	} else if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// --- cascade crash class ---

// cascadeCrashCatalog registers the fact/dimension tables of the 3-level
// cascade workload (orders ⋈ regions → per-region rollup → filtered top).
func cascadeCrashCatalog(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateTable("orders", Col("oid", TypeInt), Col("cust", TypeInt), Col("amt", TypeFloat)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("regions", Col("cust", TypeInt), Col("region", TypeString)); err != nil {
		t.Fatal(err)
	}
}

// defineCascade (re)defines all three levels with the same names and
// returns them. Used both before the crash and after recovery.
func defineCascade(t *testing.T, db *DB, opt Maintain) (*View, *AggregateView, *View) {
	t.Helper()
	enriched, err := db.DefineView(ViewSpec{
		Name:   "c_enriched",
		Tables: []string{"orders", "regions"},
		Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	rollup, err := db.DefineAggregate(AggSpec{
		Name:    "c_rollup",
		Source:  "c_enriched",
		GroupBy: []string{"region"},
		Aggs:    []Agg{{Func: AggCount}, {Func: AggSum, Column: "amt"}, {Func: AggMax, Column: "amt"}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	top, err := db.DefineView(ViewSpec{
		Name:    "c_top",
		Tables:  []string{"c_rollup"},
		Filters: []Filter{{Table: "c_rollup", Column: "sum_amt", Op: GE, Value: Float(0)}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return enriched, rollup, top
}

// cascadeOracle recomputes the rollup groups from the base tables.
func cascadeOracle(t *testing.T, db *DB) map[string][3]float64 {
	t.Helper()
	res, err := db.Query(ViewSpec{
		Name:   "oracle",
		Tables: []string{"orders", "regions"},
		Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][3]float64)
	for _, row := range res.Rows {
		region, amt := row[4].AsString(), row[2].AsFloat()
		a := out[region]
		if a[0] == 0 || amt > a[2] {
			a[2] = amt
		}
		a[0]++
		a[1] += amt
		out[region] = a
	}
	return out
}

// checkCascadeLevels refreshes every level to the current durable frontier
// and compares each against recomputation.
func checkCascadeLevels(t *testing.T, db *DB, enriched *View, rollup *AggregateView, top *View) {
	t.Helper()
	target := db.LastCSN()
	// Catching the top level up drives the whole chain: its composite
	// source waits on the rollup, which waits on the join view.
	if err := top.CatchUp(target); err != nil {
		t.Fatal(err)
	}
	for _, refresh := range []func() (CSN, error){enriched.Refresh, rollup.Refresh, top.Refresh} {
		if _, err := refresh(); err != nil && !errors.Is(err, ErrBackward) {
			t.Fatal(err)
		}
	}
	// Level 1: join view vs ad-hoc recomputation.
	full, err := db.Query(ViewSpec{
		Name:   "oracle1",
		Tables: []string{"orders", "regions"},
		Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := multiset(enriched.Rows()), multiset(full.Rows); !multisetsEqual(got, want) {
		t.Fatalf("join view diverged from recomputation:\n view: %v\n full: %v", got, want)
	}
	// Level 2: rollup vs group-by oracle.
	oracle := cascadeOracle(t, db)
	rows := rollup.Rows()
	if len(rows) != len(oracle) {
		t.Fatalf("rollup has %d groups, oracle %d", len(rows), len(oracle))
	}
	for _, r := range rows {
		region := r[0].AsString()
		want, ok := oracle[region]
		if !ok {
			t.Fatalf("unexpected group %q", region)
		}
		n, sum, max := float64(r[1].AsInt()), r[2].AsFloat(), r[3].AsFloat()
		if n != want[0] || sum-want[1] > 1e-6 || want[1]-sum > 1e-6 || max != want[2] {
			t.Fatalf("group %q = (n=%v sum=%v max=%v), want %v", region, n, sum, max, want)
		}
	}
	// Level 3: the filtered top view equals the rollup under its filter.
	if got, want := len(top.Rows()), len(rows); got != want {
		t.Fatalf("top view has %d rows, rollup %d groups", got, want)
	}
}

// TestCrashRecoveryCascade crashes a 3-level cascade (join view →
// incremental aggregate → view over the aggregate) at failpoints across
// the stack — including the aggregate's own propagation step — then
// recovers from the crash image, redefines all levels, and verifies each
// against full recomputation, plus liveness for post-recovery commits.
func TestCrashRecoveryCascade(t *testing.T) {
	points := []struct {
		point string
		hits  int64
	}{
		{fault.PointAggregate, 3},
		{fault.PointApply, 3},
		{fault.PointWALAppend, 30},
		{fault.PointCaptureReplay, 15},
		{fault.PointPublish, 10},
	}
	for _, run := range points {
		for _, seed := range []int64{1, 2} {
			name := fmt.Sprintf("%s/seed%d", run.point, seed)
			t.Run(name, func(t *testing.T) {
				defer fault.Reset()
				fault.Reset()
				fdev := fault.NewDevice(wal.NewMemDevice())
				db, err := Open(Options{Device: fdev, SyncOnCommit: true})
				if err != nil {
					t.Fatal(err)
				}
				cascadeCrashCatalog(t, db)
				var lastAcked CSN
				if csn, err := db.Update(func(tx *Tx) error {
					for c := 0; c < 10; c++ {
						if err := tx.Insert("regions", Int(int64(c)), Str(fmt.Sprintf("r%d", c%3))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				} else {
					lastAcked = csn
				}

				// Arm after definition: the three initial materializations
				// already evaluate apply/aggregate points, and the class
				// under test is a crash during live cascade maintenance.
				defineCascade(t, db, Maintain{Interval: 4, AutoRefresh: true})
				fault.Set(run.point, fault.CrashOnHit(run.hits, fdev))

				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 80 && !fdev.Frozen(); i++ {
					id := int64(i)
					var csn CSN
					if i > 5 && rng.Intn(4) == 0 {
						// Deleting a recent order often removes a group's
						// current maximum, exercising extrema retraction.
						csn, err = db.Update(func(tx *Tx) error {
							_, derr := tx.Delete("orders", "oid", EQ, Int(id-2), 1)
							return derr
						})
					} else {
						csn, err = db.Update(func(tx *Tx) error {
							return tx.Insert("orders", Int(id), Int(id%10), Float(float64(10*i)))
						})
					}
					if err != nil {
						break
					}
					lastAcked = csn
				}
				deadline := time.Now().Add(5 * time.Second)
				for !fdev.Frozen() && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if !fdev.Frozen() {
					t.Fatalf("failpoint %s never fired (%d evals)", run.point, fault.Evals(run.point))
				}
				img, err := fdev.CrashImage(0)
				if err != nil {
					t.Fatal(err)
				}
				fault.Reset()
				db.Close()

				// Recover and rebuild every level of the cascade.
				db2, err := Open(Options{Device: wal.NewMemDeviceFrom(img), SyncOnCommit: true})
				if err != nil {
					t.Fatalf("reopen from crash image: %v", err)
				}
				defer db2.Close()
				cascadeCrashCatalog(t, db2)
				recovered, err := db2.Recover()
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if recovered < lastAcked {
					t.Fatalf("recovered CSN %d lost acked commit %d", recovered, lastAcked)
				}
				enriched, rollup, top := defineCascade(t, db2, Maintain{Interval: 4})
				checkCascadeLevels(t, db2, enriched, rollup, top)

				// The recovered cascade keeps maintaining past new commits.
				if _, err := db2.Update(func(tx *Tx) error {
					return tx.Insert("orders", Int(999), Int(3), Float(123))
				}); err != nil {
					t.Fatal(err)
				}
				checkCascadeLevels(t, db2, enriched, rollup, top)
			})
		}
	}
}
