package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// testEnv wires an engine, a background log capture, a view with its delta
// table, and a shadow oracle that records the true view state at every CSN.
type testEnv struct {
	t    *testing.T
	db   *engine.DB
	cap  *capture.LogCapture
	view *ViewDef
	dest *engine.DeltaTable
	exec *Executor

	mu      sync.Mutex
	shadows []*relalg.Relation              // true base-table contents
	states  map[relalg.CSN]*relalg.Relation // true view state per CSN
	lastCSN relalg.CSN
}

// kvSchema is the (k, v) schema used by every test table.
func kvSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
}

// chainView joins n tables pairwise on k: R1.k = R2.k = ... = Rn.k.
func chainView(name string, n int) *ViewDef {
	v := &ViewDef{Name: name}
	for i := 0; i < n; i++ {
		v.Relations = append(v.Relations, fmt.Sprintf("r%d", i+1))
		if i > 0 {
			v.Conds = append(v.Conds, engine.JoinCond{
				A: engine.ColRef{Input: i - 1, Col: 0},
				B: engine.ColRef{Input: i, Col: 0},
			})
		}
	}
	return v
}

func newEnv(t *testing.T, view *ViewDef) *testEnv {
	t.Helper()
	db, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, name := range view.Relations {
		if _, err := db.CreateTable(name, kvSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateDelta(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := view.Validate(db); err != nil {
		t.Fatal(err)
	}
	schema, err := view.Schema(db)
	if err != nil {
		t.Fatal(err)
	}
	dest, err := db.CreateStandaloneDelta("Δ"+view.Name, schema)
	if err != nil {
		t.Fatal(err)
	}
	c := capture.NewLogCapture(db)
	c.Start()
	env := &testEnv{
		t:       t,
		db:      db,
		cap:     c,
		view:    view,
		dest:    dest,
		exec:    NewExecutor(db, c, view, dest),
		shadows: make([]*relalg.Relation, view.N()),
		states:  map[relalg.CSN]*relalg.Relation{0: relalg.NewRelation(schema)},
	}
	for i := range env.shadows {
		env.shadows[i] = relalg.NewRelation(kvSchema())
	}
	return env
}

// relIndex maps a table name to its position in the view.
func (e *testEnv) relIndex(table string) int {
	for i, n := range e.view.Relations {
		if n == table {
			return i
		}
	}
	e.t.Fatalf("table %s not in view", table)
	return -1
}

// evalShadowView computes the true view contents from the shadow tables,
// mirroring the engine's left-deep evaluation.
func (e *testEnv) evalShadowView() *relalg.Relation {
	offsets := make([]int, len(e.shadows))
	pos := 0
	for i, s := range e.shadows {
		offsets[i] = pos
		pos += s.Schema.Arity()
	}
	result := e.shadows[0]
	used := make([]bool, len(e.view.Conds))
	for i := 1; i < len(e.shadows); i++ {
		var on []relalg.JoinOn
		for ci, c := range e.view.Conds {
			if used[ci] {
				continue
			}
			a, b := c.A, c.B
			if b.Input < a.Input {
				a, b = b, a
			}
			if b.Input == i && a.Input < i {
				on = append(on, relalg.JoinOn{LeftCol: offsets[a.Input] + a.Col, RightCol: b.Col})
				used[ci] = true
			}
		}
		result = relalg.Join(result, e.shadows[i], on)
	}
	if e.view.Residual != nil {
		result = relalg.Select(result, e.view.Residual)
	}
	if e.view.Project != nil {
		idx := make([]int, len(e.view.Project))
		for i, ref := range e.view.Project {
			idx[i] = offsets[ref.Input] + ref.Col
		}
		result = relalg.Project(result, idx, nil)
	}
	return result
}

// tupleFor builds the canonical tuple for key k so that any row matching k
// is identical (making delete-first deterministic for the oracle).
func tupleFor(k int64) tuple.Tuple {
	return tuple.Tuple{tuple.Int(k), tuple.Int(k * 10)}
}

// insert commits an insert of key k into table and records the oracle state.
func (e *testEnv) insert(table string, k int64) relalg.CSN {
	e.t.Helper()
	tx := e.db.Begin()
	if err := tx.Insert(table, tupleFor(k)); err != nil {
		tx.Abort()
		e.t.Fatal(err)
	}
	csn, err := tx.Commit()
	if err != nil {
		e.t.Fatal(err)
	}
	e.mu.Lock()
	i := e.relIndex(table)
	e.shadows[i] = e.shadows[i].Clone()
	e.shadows[i].Add(tupleFor(k), 1, relalg.NullTS)
	e.states[csn] = e.evalShadowView()
	if csn > e.lastCSN {
		e.lastCSN = csn
	}
	e.mu.Unlock()
	return csn
}

// delete commits a delete of one row with key k (if present) and records
// the oracle state.
func (e *testEnv) delete(table string, k int64) relalg.CSN {
	e.t.Helper()
	tx := e.db.Begin()
	n, err := tx.DeleteWhere(table, relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(k)}, 1)
	if err != nil {
		tx.Abort()
		e.t.Fatal(err)
	}
	csn, err := tx.Commit()
	if err != nil {
		e.t.Fatal(err)
	}
	e.mu.Lock()
	if n > 0 {
		i := e.relIndex(table)
		s := e.shadows[i].Clone()
		s.Add(tupleFor(k), -1, relalg.NullTS)
		e.shadows[i] = relalg.NetEffect(s)
	}
	e.states[csn] = e.evalShadowView()
	if csn > e.lastCSN {
		e.lastCSN = csn
	}
	e.mu.Unlock()
	return csn
}

// multiOpTxn commits one transaction performing several operations across
// the view's tables and records the oracle state at its commit CSN. All of
// a transaction's changes share one timestamp, exercising same-CSN
// grouping in the delta tables.
func (e *testEnv) multiOpTxn(r *rand.Rand, ops, keyDomain int) relalg.CSN {
	e.t.Helper()
	tx := e.db.Begin()
	type change struct {
		rel   int
		k     int64
		count int64
	}
	var changes []change
	for i := 0; i < ops; i++ {
		ri := r.Intn(e.view.N())
		table := e.view.Relations[ri]
		k := int64(r.Intn(keyDomain))
		if r.Intn(3) == 0 {
			n, err := tx.DeleteWhere(table, relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(k)}, 1)
			if err != nil {
				tx.Abort()
				e.t.Fatal(err)
			}
			if n > 0 {
				changes = append(changes, change{ri, k, -1})
			}
		} else {
			if err := tx.Insert(table, tupleFor(k)); err != nil {
				tx.Abort()
				e.t.Fatal(err)
			}
			changes = append(changes, change{ri, k, 1})
		}
	}
	csn, err := tx.Commit()
	if err != nil {
		e.t.Fatal(err)
	}
	e.mu.Lock()
	for _, c := range changes {
		s := e.shadows[c.rel].Clone()
		s.Add(tupleFor(c.k), c.count, relalg.NullTS)
		e.shadows[c.rel] = relalg.NetEffect(s)
	}
	e.states[csn] = e.evalShadowView()
	if csn > e.lastCSN {
		e.lastCSN = csn
	}
	e.mu.Unlock()
	return csn
}

// randomHistory runs ops random single-op transactions over the view's
// tables with keys in [0, keyDomain).
func (e *testEnv) randomHistory(r *rand.Rand, ops, keyDomain int) relalg.CSN {
	var last relalg.CSN
	for i := 0; i < ops; i++ {
		table := e.view.Relations[r.Intn(e.view.N())]
		k := int64(r.Intn(keyDomain))
		if r.Intn(3) == 0 {
			last = e.delete(table, k)
		} else {
			last = e.insert(table, k)
		}
	}
	return last
}

// statesThrough returns the oracle state map with gaps filled (CSNs from
// propagation-query commits leave base tables unchanged) through hi.
func (e *testEnv) statesThrough(hi relalg.CSN) map[relalg.CSN]*relalg.Relation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[relalg.CSN]*relalg.Relation, int(hi)+1)
	cur := e.states[0]
	for t := relalg.CSN(0); t <= hi; t++ {
		if s, ok := e.states[t]; ok {
			cur = s
		}
		out[t] = cur
	}
	return out
}

// checkTimedDelta asserts the accumulated view delta is a timed delta table
// for the view over [lo, hi].
func (e *testEnv) checkTimedDelta(lo, hi relalg.CSN) {
	e.t.Helper()
	states := e.statesThrough(hi)
	delta := e.dest.All()
	if a, b, ok := relalg.IsTimedDeltaTable(delta, states, lo, hi); !ok {
		e.t.Fatalf("delta is not a timed delta table over [%d,%d]: first violation (%d,%d)\ndelta:\n%s",
			lo, hi, a, b, delta)
	}
}

// drainRolling steps the rolling propagator until its HWM reaches target.
func drainRolling(t *testing.T, rp *RollingPropagator, target relalg.CSN) {
	t.Helper()
	for rp.HWM() < target {
		err := rp.Step()
		if err == nil {
			continue
		}
		if errors.Is(err, ErrNoProgress) {
			if rp.HWM() >= target {
				return
			}
			continue // capture catching up
		}
		t.Fatal(err)
	}
}

// drainPropagate steps the Figure 5 propagator until its HWM reaches target.
func drainPropagate(t *testing.T, p *Propagator, target relalg.CSN) {
	t.Helper()
	for p.HWM() < target {
		err := p.Step()
		if err == nil {
			continue
		}
		if errors.Is(err, ErrNoProgress) {
			continue
		}
		t.Fatal(err)
	}
}
