package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// mustSchema resolves the env's view output schema.
func mustSchema(t *testing.T, env *testEnv) *tuple.Schema {
	t.Helper()
	sch, err := env.view.Schema(env.db)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// imageOf reads an image at its MatTime.
func imageOf(t *testing.T, dv *engine.Derived) *relalg.Relation {
	t.Helper()
	rel, err := dv.Image()
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// newApplier builds an applier over an empty image of the env's view
// delta at time 0.
func newApplier(env *testEnv, hwm func() relalg.CSN) (*Applier, *engine.Derived) {
	dv := engine.NewDerived(env.dest, hwm)
	return NewApplier(dv), dv
}

// mvTestTuple builds an all-integer tuple of the given arity that no real
// history produces (used to inject corruption).
func mvTestTuple(arity int) tuple.Tuple {
	out := make(tuple.Tuple, arity)
	for i := range out {
		out[i] = tuple.Int(999999)
	}
	return out
}

func TestMaterializeMatchesOracle(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	r := rand.New(rand.NewSource(61))
	env.randomHistory(r, 30, 4)
	rel, err := MaterializeAt(env.db, env.view, env.db.StableCSN())
	if err != nil {
		t.Fatal(err)
	}
	env.mu.Lock()
	want := env.evalShadowView()
	env.mu.Unlock()
	if !relalg.Equivalent(rel, want) {
		t.Fatalf("materialized view differs from oracle:\n%s\nvs\n%s", rel, want)
	}
}

func TestApplierRollToEveryPoint(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	r := rand.New(rand.NewSource(62))
	last := env.randomHistory(r, 40, 4)

	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(3, 7))
	drainRolling(t, rp, last)
	a, dv := newApplier(env, rp.HWM)

	states := env.statesThrough(last)
	// Roll forward one CSN at a time, comparing against the oracle at every
	// point — point-in-time refresh at its finest granularity.
	for ts := relalg.CSN(1); ts <= last; ts++ {
		if err := a.RollTo(ts); err != nil {
			t.Fatalf("roll to %d: %v", ts, err)
		}
		if got := imageOf(t, dv); !relalg.Equivalent(got, states[ts]) {
			t.Fatalf("state at %d differs:\n%s\nvs oracle\n%s", ts, got, states[ts])
		}
	}
	if a.Refreshes() == 0 || a.RowsApplied() < 0 {
		t.Fatal("counters")
	}
}

func TestApplierCoarseJumpsMatchFineSteps(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	r := rand.New(rand.NewSource(63))
	last := env.randomHistory(r, 40, 4)
	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(5, 5))
	drainRolling(t, rp, last)

	states := env.statesThrough(last)
	a, dv := newApplier(env, rp.HWM)
	// Jump in random strides.
	ts := relalg.CSN(0)
	for ts < last {
		ts += relalg.CSN(1 + r.Intn(9))
		if ts > last {
			ts = last
		}
		if err := a.RollTo(ts); err != nil {
			t.Fatal(err)
		}
		if !relalg.Equivalent(imageOf(t, dv), states[ts]) {
			t.Fatalf("coarse state at %d differs", ts)
		}
	}
}

func TestApplierErrors(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	last := env.insert("r1", 1)
	rp := NewRollingPropagator(env.exec, 0, FixedInterval(4))
	drainRolling(t, rp, last)

	a, _ := newApplier(env, rp.HWM)
	if err := a.RollTo(rp.HWM() + 100); !errors.Is(err, ErrBeyondHWM) {
		t.Fatalf("want ErrBeyondHWM, got %v", err)
	}
	if err := a.RollTo(last); err != nil {
		t.Fatal(err)
	}
	if err := a.RollTo(last - 1); !errors.Is(err, ErrBackward) {
		t.Fatalf("want ErrBackward, got %v", err)
	}
	if err := a.RollTo(last); err != nil {
		t.Fatal("rolling to the current time is a no-op")
	}
}

func TestApplierRollToHWMAndPrune(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	r := rand.New(rand.NewSource(64))
	last := env.randomHistory(r, 20, 3)
	rp := NewRollingPropagator(env.exec, 0, FixedInterval(6))
	drainRolling(t, rp, last)

	a, dv := newApplier(env, rp.HWM)
	reached, err := a.RollToHWM()
	if err != nil || reached < last {
		t.Fatalf("RollToHWM: %d %v", reached, err)
	}
	states := env.statesThrough(last)
	if !relalg.Equivalent(imageOf(t, dv), states[last]) {
		t.Fatal("state at hwm")
	}
	before := env.dest.Len()
	// Pruning stops at MatTime, however far it is asked to go.
	pruned := dv.PruneThrough(last + 100)
	if pruned == 0 && before > 0 {
		t.Fatal("prune should reclaim applied rows")
	}
	if env.dest.Len() != before-pruned {
		t.Fatal("prune accounting")
	}
	if got := env.dest.PrunedThrough(); got != reached {
		t.Fatalf("pruned through %d, want MatTime %d", got, reached)
	}
}

func TestApplierDetectsCorruptDelta(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	env.insert("r2", 1)
	last := env.insert("r1", 1) // joins: the window holds one good row
	rp := NewRollingPropagator(env.exec, 0, FixedInterval(4))
	drainRolling(t, rp, last)
	a, dv := newApplier(env, rp.HWM)
	before := imageOf(t, dv)
	// Inject a bogus deletion for a tuple that is not in the view.
	env.dest.Append(last, -1, mvTestTuple(mustSchema(t, env).Arity()))
	err := a.RollTo(last)
	if !errors.Is(err, ErrNegativeCount) {
		t.Fatalf("want ErrNegativeCount, got %v", err)
	}
	// All or nothing: the good row of the window is not applied either.
	if got := imageOf(t, dv); dv.MatTime() != 0 || !relalg.Equivalent(got, before) {
		t.Fatalf("failed apply changed the image: MatTime %d, contents\n%s", dv.MatTime(), got)
	}
}

func TestFullRefreshMatchesOracle(t *testing.T) {
	env := newEnv(t, chainView("v", 3))
	r := rand.New(rand.NewSource(65))
	env.randomHistory(r, 30, 3)
	rel, csn, err := FullRefresh(env.db, env.view)
	if err != nil || csn == 0 {
		t.Fatal(err)
	}
	env.mu.Lock()
	want := env.evalShadowView()
	env.mu.Unlock()
	if !relalg.Equivalent(rel, want) {
		t.Fatal("full refresh differs from oracle")
	}
}

func TestSyncEq1Oracle(t *testing.T) {
	env := newEnv(t, chainView("v", 3))
	r := rand.New(rand.NewSource(66))
	last := env.randomHistory(r, 30, 3)
	b, queries, err := SyncPropagateEq1(env.db, env.cap, env.view, env.dest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if queries != 7 { // 2^3 - 1
		t.Fatalf("Eq.1 should use 7 queries for n=3, got %d", queries)
	}
	if b < last {
		t.Fatalf("b=%d < last=%d", b, last)
	}
	env.checkTimedDelta(0, last)
}

func TestSyncEq2Oracle(t *testing.T) {
	env := newEnv(t, chainView("v", 3))
	r := rand.New(rand.NewSource(67))
	last := env.randomHistory(r, 30, 3)
	b, queries, err := SyncPropagateEq2(env.db, env.cap, env.view, env.dest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if queries != 3 {
		t.Fatalf("Eq.2 should use n=3 queries, got %d", queries)
	}
	if b < last {
		t.Fatalf("b=%d < last=%d", b, last)
	}
	// Eq.2 is net-correct over the full interval but NOT a timed delta
	// table (see the SyncPropagateEq2 doc comment): check only (0, b].
	states := env.statesThrough(last)
	rolled := relalg.Union(relalg.Window(env.dest.All(), 0, b), states[0])
	if !relalg.Equivalent(rolled, states[last]) {
		t.Fatal("Eq.2 net delta incorrect over the full interval")
	}
}

func TestSyncBaselinesEmptyInterval(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	last := env.insert("r1", 1)
	if err := env.cap.WaitProgress(last); err != nil {
		t.Fatal(err)
	}
	b := env.db.LastCSN()
	if got, q, err := SyncPropagateEq1(env.db, env.cap, env.view, env.dest, b+10); err != nil || q != 0 || got != b+10 {
		t.Fatalf("eq1 empty: %d %d %v", got, q, err)
	}
	if _, q, err := SyncPropagateEq2(env.db, env.cap, env.view, env.dest, b+10); err != nil || q != 0 {
		t.Fatalf("eq2 empty: %d %v", q, err)
	}
}

// TestAllPropagatorsAgree runs the same history through rolling, Figure 5,
// Eq.1, and Eq.2 and checks all four deltas roll the view identically at
// several sampled points.
func TestAllPropagatorsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(68))
	type run struct {
		name  string
		delta *relalg.Relation
	}
	var runs []run
	var states map[relalg.CSN]*relalg.Relation
	var last relalg.CSN

	build := func(name string, f func(env *testEnv) relalg.CSN) {
		env := newEnv(t, chainView("v", 2))
		hist := rand.New(rand.NewSource(99)) // same history each run
		last = env.randomHistory(hist, 40, 4)
		reached := f(env)
		if reached < last {
			t.Fatalf("%s reached only %d", name, reached)
		}
		runs = append(runs, run{name, env.dest.All()})
		states = env.statesThrough(last)
	}
	build("rolling", func(env *testEnv) relalg.CSN {
		rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(relalg.CSN(1+r.Intn(5)), relalg.CSN(1+r.Intn(9))))
		drainRolling(t, rp, last)
		return rp.HWM()
	})
	build("propagate", func(env *testEnv) relalg.CSN {
		p := NewPropagator(env.exec, 0, FixedInterval(4))
		drainPropagate(t, p, last)
		return p.HWM()
	})
	build("eq1", func(env *testEnv) relalg.CSN {
		b, _, err := SyncPropagateEq1(env.db, env.cap, env.view, env.dest, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	build("eq2", func(env *testEnv) relalg.CSN {
		b, _, err := SyncPropagateEq2(env.db, env.cap, env.view, env.dest, 0)
		if err != nil {
			t.Fatal(err)
		}
		return b
	})

	for _, rn := range runs {
		// Eq.2 is only net-correct over the full interval (no timestamp
		// cancellation); the others are timed deltas checkable anywhere.
		checkpoints := []relalg.CSN{1, last / 4, last / 2, last}
		if rn.name == "eq2" {
			checkpoints = []relalg.CSN{last}
		}
		for _, ts := range checkpoints {
			rolled := relalg.Union(relalg.Window(rn.delta, 0, ts), states[0])
			if !relalg.Equivalent(rolled, states[ts]) {
				t.Fatalf("%s delta wrong at ts=%d", rn.name, ts)
			}
		}
	}
}
