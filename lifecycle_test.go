package rollingjoin

// Tests for the unified maintenance runtime: many views sharing one
// scheduler under concurrent writers, start/stop churn, graceful drain on
// Close, context-aware waits, auto-refresh convergence, and backpressure.
// Run with -race; every test here is written to be loop-safe (-count=N).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// seedItems loads the two-item catalog the orders/items tests join against.
func seedItems(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("items", Str("ball"), Int(5)); err != nil {
			return err
		}
		return tx.Insert("items", Str("bat"), Int(20))
	}); err != nil {
		t.Fatal(err)
	}
}

func namedOrderSpec(name string) ViewSpec {
	return ViewSpec{
		Name:   name,
		Tables: []string{"orders", "items"},
		Joins:  []Join{{"orders", "item", "items", "item"}},
	}
}

// multisetOf keys tuples by their printed form for multiset comparison.
func multisetOf(rows []Tuple) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[fmt.Sprintf("%v", r)]++
	}
	return m
}

func sameMultiset(a, b map[string]int) bool {
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

// runOrderWriters commits txns order transactions (mostly inserts, some
// deletes) across workers concurrent goroutines and returns the last CSN.
func runOrderWriters(t *testing.T, db *DB, workers, txns int) CSN {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	var mu sync.Mutex
	var last CSN
	per := txns / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				item := "ball"
				if (w+i)%2 == 1 {
					item = "bat"
				}
				id := int64(w*per + i)
				var csn CSN
				var err error
				if i%9 == 8 {
					csn, err = db.Update(func(tx *Tx) error {
						_, derr := tx.Delete("orders", "id", EQ, Int(id-4), 1)
						return derr
					})
				} else {
					csn, err = db.Update(func(tx *Tx) error {
						return tx.Insert("orders", Int(id), Str(item))
					})
				}
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if csn > last {
					last = csn
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return last
}

// TestRuntimeManyViews runs plain views (rolling and stepwise, one with
// AutoRefresh), a union view, and an auto-refreshed aggregate over a view
// (COUNT plus SUM) — all on the
// shared scheduler — under concurrent writers, then drains and verifies
// every one against a fresh recomputation oracle.
func TestRuntimeManyViews(t *testing.T) {
	db := newTestDB(t, Options{})
	seedItems(t, db)

	branch := func(name, item string) ViewSpec {
		s := namedOrderSpec(name)
		s.Filters = []Filter{{Table: "items", Column: "item", Op: EQ, Value: Str(item)}}
		return s
	}
	uv, err := db.DefineUnionView("u_all",
		[]ViewSpec{branch("u_ball", "ball"), branch("u_bat", "bat")},
		Maintain{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}

	views := make([]*View, 3)
	opts := []Maintain{
		{Interval: 4},
		{Interval: 8, AutoRefresh: true},
		{Interval: 2, Algorithm: AlgorithmStepwise},
	}
	for i, opt := range opts {
		if views[i], err = db.DefineView(namedOrderSpec(fmt.Sprintf("many%d", i)), opt); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := db.DefineAggregate(AggSpec{
		Name:    "many_rev",
		Source:  views[0].Name(),
		GroupBy: []string{"item"},
		Aggs:    []Agg{{Func: AggCount}, {Func: AggSum, Column: "price"}},
	}, Maintain{AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}

	last := runOrderWriters(t, db, 3, 90)

	oracleSpec := namedOrderSpec("oracle")
	oracle, err := db.Query(oracleSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := multisetOf(oracle.Rows)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, v := range views {
		if err := v.CatchUpContext(ctx, last); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if _, err := v.Refresh(); err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if got := multisetOf(v.Rows()); !sameMultiset(got, want) {
			t.Fatalf("view %d diverged from oracle: %d vs %d distinct rows", i, len(got), len(want))
		}
	}
	if err := uv.CatchUpContext(ctx, last); err != nil {
		t.Fatal(err)
	}
	if _, err := uv.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := multisetOf(uv.Rows()); !sameMultiset(got, want) {
		t.Fatalf("union view diverged from oracle")
	}

	// The auto-refreshed aggregate converges without an explicit Refresh.
	wantCount := make(map[string]int64)
	var wantSum map[string]float64 = map[string]float64{}
	for _, r := range oracle.Rows {
		item := r[1].AsString()
		wantCount[item]++
		wantSum[item] += float64(r[3].AsInt())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		rows := sum.Rows()
		okAll := len(rows) == len(wantCount)
		for _, r := range rows {
			if item := r[0].AsString(); wantCount[item] != r[1].AsInt() || wantSum[item] != r[2].AsFloat() {
				okAll = false
			}
		}
		if okAll {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-refreshed aggregate did not converge: %+v (want counts %v)", rows, wantCount)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sum.StopAutoRefresh(); err != nil {
		t.Fatal(err)
	}
}

// TestStartStopChurn hammers StartPropagation/StopPropagation from many
// goroutines while writers commit; the lifecycle must stay idempotent and
// race-free, and the view must still converge afterwards.
func TestStartStopChurn(t *testing.T) {
	db := newTestDB(t, Options{})
	seedItems(t, db)
	v, err := db.DefineView(namedOrderSpec("churn"), Maintain{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	for g := 0; g < 8; g++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v.StartPropagation()
				if err := v.StopPropagation(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	last := runOrderWriters(t, db, 2, 60)
	close(stop)
	churnWG.Wait()
	v.StartPropagation()
	if !v.Maintaining() {
		t.Fatal("view should be maintaining after final Start")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := v.WaitForHWMContext(ctx, last); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Refresh(); err != nil {
		t.Fatal(err)
	}
	oracle, err := db.Query(namedOrderSpec("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(multisetOf(v.Rows()), multisetOf(oracle.Rows)) {
		t.Fatal("churned view diverged from oracle")
	}
}

// TestCloseDrainsMaintenance closes the database while auto-refreshed
// maintenance is mid-flight: Close must drain the in-flight steps (no
// panics, no use-after-close), and the materialization time must be frozen
// once Close returns.
func TestCloseDrainsMaintenance(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("orders", Col("id", TypeInt), Col("item", TypeString)); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("items", Col("item", TypeString), Col("price", TypeInt)); err != nil {
		t.Fatal(err)
	}
	seedItems(t, db)
	v, err := db.DefineView(namedOrderSpec("drain"), Maintain{Interval: 2, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	runOrderWriters(t, db, 2, 40)
	// Close while propagation and apply are likely still catching up.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mat := v.MatTime()
	hwm := v.HWM()
	time.Sleep(10 * time.Millisecond)
	if v.MatTime() != mat || v.HWM() != hwm {
		t.Fatalf("maintenance advanced after Close: mat %d→%d hwm %d→%d", mat, v.MatTime(), hwm, v.HWM())
	}
}

// TestWaitForHWMContext covers the context-aware wait: it times out cleanly
// when nothing advances the HWM and succeeds once propagation is driven.
func TestWaitForHWMContext(t *testing.T) {
	db := newTestDB(t, Options{})
	seedItems(t, db)
	v, err := db.DefineView(namedOrderSpec("waitctx"), Maintain{Interval: 2, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	last, err := db.Update(func(tx *Tx) error {
		return tx.Insert("orders", Int(1), Str("ball"))
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := v.WaitForHWMContext(ctx, last); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded with no propagation, got %v", err)
	}

	v.StartPropagation()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := v.WaitForHWMContext(ctx2, last); err != nil {
		t.Fatal(err)
	}
	if v.HWM() < last {
		t.Fatalf("hwm %d < %d after successful wait", v.HWM(), last)
	}
}

// TestAutoRefreshConverges checks that Maintain.AutoRefresh rolls the
// materialized view forward with no Refresh calls at all.
func TestAutoRefreshConverges(t *testing.T) {
	db := newTestDB(t, Options{})
	seedItems(t, db)
	v, err := db.DefineView(namedOrderSpec("auto"), Maintain{Interval: 4, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	last := runOrderWriters(t, db, 2, 50)
	deadline := time.Now().Add(30 * time.Second)
	for v.MatTime() < last {
		if time.Now().After(deadline) {
			t.Fatalf("auto refresh stalled at %d (want %d, hwm %d)", v.MatTime(), last, v.HWM())
		}
		time.Sleep(time.Millisecond)
	}
	oracle, err := db.Query(namedOrderSpec("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(multisetOf(v.Rows()), multisetOf(oracle.Rows)) {
		t.Fatal("auto-refreshed view diverged from oracle")
	}
}

// TestBackpressureParksAndDemandBypasses drives a view with a tiny
// MaxBacklog and nobody applying: propagation must park (visible in the
// scheduler counters) well short of the last commit, and a CatchUp demand
// must push it through the backlog limit anyway.
func TestBackpressureParks(t *testing.T) {
	db := newTestDB(t, Options{})
	seedItems(t, db)
	v, err := db.DefineView(namedOrderSpec("bp"), Maintain{Interval: 2, MaxBacklog: 4})
	if err != nil {
		t.Fatal(err)
	}
	last := runOrderWriters(t, db, 2, 60)

	// Propagation parks once more than MaxBacklog delta rows await apply.
	deadline := time.Now().Add(30 * time.Second)
	for db.Engine().Stats().Sched.Parks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("propagation never parked (hwm %d, unapplied %d)", v.HWM(), v.Stats().DeltaRowsUnapplied)
		}
		time.Sleep(time.Millisecond)
	}
	if v.HWM() >= last {
		t.Fatalf("hwm %d reached %d despite backpressure", v.HWM(), last)
	}

	// An explicit demand overrides parking: CatchUp must complete.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := v.CatchUpContext(ctx, last); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Refresh(); err != nil {
		t.Fatal(err)
	}
	oracle, err := db.Query(namedOrderSpec("oracle"))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(multisetOf(v.Rows()), multisetOf(oracle.Rows)) {
		t.Fatal("backpressured view diverged from oracle")
	}
}
