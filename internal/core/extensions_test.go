package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// unionEnv builds a database with three tables and a two-branch union view:
// (r1 ⋈ r2) + (r1 ⋈ r3), both projected to the same schema.
func unionEnv(t *testing.T) (*engine.DB, *engine.DeltaTable, *UnionView, func(table string, k int64) relalg.CSN) {
	t.Helper()
	db, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, name := range []string{"r1", "r2", "r3"} {
		if _, err := db.CreateTable(name, kvSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateDelta(name); err != nil {
			t.Fatal(err)
		}
	}
	c := capture.NewLogCapture(db)
	c.Start()

	branch := func(name, right string) *ViewDef {
		return &ViewDef{
			Name:      name,
			Relations: []string{"r1", right},
			Conds:     []engine.JoinCond{{A: engine.ColRef{Input: 0, Col: 0}, B: engine.ColRef{Input: 1, Col: 0}}},
			Project:   []engine.ColRef{{Input: 0, Col: 0}, {Input: 1, Col: 1}},
		}
	}
	b12, b13 := branch("b12", "r2"), branch("b13", "r3")
	schema, err := b12.Schema(db)
	if err != nil {
		t.Fatal(err)
	}
	dest, err := db.CreateStandaloneDelta("u", schema)
	if err != nil {
		t.Fatal(err)
	}
	uv, err := NewUnionView(db, c, dest, 0, PerRelationIntervals(3, 5), b12, b13)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(table string, k int64) relalg.CSN {
		tx := db.Begin()
		if err := tx.Insert(table, tupleFor(k)); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		csn, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return csn
	}
	return db, dest, uv, insert
}

func drainUnion(t *testing.T, uv *UnionView, target relalg.CSN) {
	t.Helper()
	for uv.HWM() < target {
		if err := uv.Step(); err != nil && !errors.Is(err, ErrNoProgress) {
			t.Fatal(err)
		}
	}
}

func TestUnionViewMaintenance(t *testing.T) {
	db, dest, uv, insert := unionEnv(t)
	r := rand.New(rand.NewSource(81))
	var last relalg.CSN
	tables := []string{"r1", "r2", "r3"}
	for i := 0; i < 60; i++ {
		last = insert(tables[r.Intn(3)], int64(r.Intn(4)))
	}
	drainUnion(t, uv, last)

	// Oracle: recompute both branches and union them.
	dv := engine.NewDerived(dest, uv.HWM)
	applier := NewApplier(dv)
	if err := applier.RollTo(last); err != nil {
		t.Fatal(err)
	}
	full1, _, err := FullRefresh(db, uv.Branches[0])
	if err != nil {
		t.Fatal(err)
	}
	full2, _, err := FullRefresh(db, uv.Branches[1])
	if err != nil {
		t.Fatal(err)
	}
	want := relalg.Union(full1, full2)
	if got := imageOf(t, dv); !relalg.Equivalent(got, want) {
		t.Fatalf("union view diverged:\n%s\nvs\n%s", got, relalg.NetEffect(want))
	}
}

func TestUnionViewPointInTime(t *testing.T) {
	_, dest, uv, insert := unionEnv(t)
	insert("r2", 1)
	mid := insert("r1", 1)  // joins r2 branch
	last := insert("r3", 1) // joins r3 branch too
	drainUnion(t, uv, last)

	dv := engine.NewDerived(dest, uv.HWM)
	applier := NewApplier(dv)
	if err := applier.RollTo(mid); err != nil {
		t.Fatal(err)
	}
	if n := imageOf(t, dv).Cardinality(); n != 1 {
		t.Fatalf("at mid: %d tuples", n)
	}
	if err := applier.RollTo(last); err != nil {
		t.Fatal(err)
	}
	if n := imageOf(t, dv).Cardinality(); n != 2 {
		t.Fatalf("at last: %d tuples", n)
	}
}

func TestUnionViewValidation(t *testing.T) {
	db, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("a", kvSchema())
	db.CreateDelta("a")
	c := capture.NewLogCapture(db)

	dest, err := db.CreateStandaloneDelta("u", kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUnionView(db, c, dest, 0, FixedInterval(1)); err == nil {
		t.Fatal("no branches should fail")
	}
	v1 := &ViewDef{Name: "v1", Relations: []string{"a"}}
	v2 := &ViewDef{Name: "v2", Relations: []string{"a"},
		Project: []engine.ColRef{{Input: 0, Col: 0}}}
	if _, err := NewUnionView(db, c, dest, 0, FixedInterval(1), v1, v2); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestAdaptiveIntervalOracle(t *testing.T) {
	// Rolling propagation driven by the adaptive policy must still satisfy
	// Theorem 4.3, and the policy must assign the quiet relation a wider
	// interval than the busy one.
	env := newEnv(t, chainView("v", 2))
	r := rand.New(rand.NewSource(95))
	var last relalg.CSN
	for i := 0; i < 80; i++ {
		// r1 gets ~7x the traffic of r2.
		if r.Intn(8) == 0 {
			last = env.insert("r2", int64(r.Intn(4)))
		} else {
			last = env.insert("r1", int64(r.Intn(4)))
		}
	}
	if err := env.cap.WaitProgress(last); err != nil {
		t.Fatal(err)
	}
	policy := AdaptiveInterval(env.db, env.view, 16)
	if d1, d2 := policy(0), policy(1); d1 >= d2 {
		t.Fatalf("busy relation should get the narrower interval: δ=[%d, %d]", d1, d2)
	}
	rp := NewRollingPropagator(env.exec, 0, policy)
	drainRolling(t, rp, last)
	env.checkTimedDelta(0, last)
}

func TestAdaptiveIntervalEdgeCases(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	// No data at all: widest interval.
	p := AdaptiveInterval(env.db, env.view, 0)
	if p(0) != 1<<16 {
		t.Fatalf("empty delta should widen: %d", p(0))
	}
	if p(-1) != 1<<16 {
		t.Fatal("negative index defaults to relation 0")
	}
	// Unknown relation: minimum interval.
	bogus := &ViewDef{Name: "x", Relations: []string{"ghost"}}
	pb := AdaptiveInterval(env.db, bogus, 10)
	if pb(0) != 1 {
		t.Fatalf("unknown relation should narrow: %d", pb(0))
	}
}

func TestNumericCoercion(t *testing.T) {
	cases := []struct {
		v    tuple.Value
		want float64
	}{
		{tuple.Int(7), 7},
		{tuple.Float(2.5), 2.5},
		{tuple.Bool(true), 1},
		{tuple.Bool(false), 0},
		{tuple.Null(), 0},
		{tuple.String_("x"), 0},
	}
	for _, c := range cases {
		if got := numeric(c.v); got != c.want {
			t.Errorf("numeric(%v) = %v want %v", c.v, got, c.want)
		}
	}
}
