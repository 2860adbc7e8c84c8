package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/relalg"
	"repro/internal/workload"
)

// F4 reproduces Figure 4 / Equation 3: ComputeDelta on V = R1 ⋈ R2 issues
// two asynchronous forward queries plus recursive compensation. With read
// views pinning every query at its intended time, compensation collapses to
// the exact inclusion-exclusion form: position 0 reads everything at t_b and
// needs no correction, and position 1's single compensation subtracts the
// Δ1 ⊗ Δ2 overlap — three queries total. The returned table lists the
// executed queries in order.
func F4() (*metrics.Table, error) {
	env, err := NewEnv(workload.Chain(2, 8, 4), 1)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	env.Exec.SkipEmptyWindows = false

	var trace []core.TraceEntry
	env.Exec.OnQuery = func(e core.TraceEntry) { trace = append(trace, e) }

	d := workload.NewDriver(env.DB, env.W, 2)
	last, err := d.Run(10)
	if err != nil {
		return nil, err
	}
	if err := env.Exec.ComputeDelta(core.AllBase(env.W.View), []relalg.CSN{0, 0}, last); err != nil {
		return nil, err
	}

	t := metrics.NewTable("F4 — ComputeDelta(V, [a,a], b) for V = R1 ⋈ R2 (Equation 3)",
		"#", "kind", "query", "exec(t)", "rows")
	for i, e := range trace {
		t.AddRow(i+1, e.Kind.String(), e.Query, int64(e.Exec), e.Rows)
	}
	st := env.Exec.Stats()
	if st.ForwardQueries != 2 || st.CompensationQueries != 1 {
		return t, fmt.Errorf("F4: expected 2 forward + 1 compensation query, got %d + %d",
			st.ForwardQueries, st.CompensationQueries)
	}
	return t, nil
}

// F7 reproduces Figure 7: the four ComputeDelta query regions net to
// exactly the L-shaped region V_{a,b} — applying the computed delta to the
// view at t_a yields the view at t_b.
func F7() (*metrics.Table, error) {
	env, err := NewEnv(workload.Chain(2, 50, 10), 3)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	env.Exec.SkipEmptyWindows = false

	// Materialize at t_a.
	rel, a, err := core.FullRefresh(env.DB, env.W.View)
	if err != nil {
		return nil, err
	}

	// Evolve to t_b.
	d := workload.NewDriver(env.DB, env.W, 4)
	b, err := d.Run(60)
	if err != nil {
		return nil, err
	}

	var trace []core.TraceEntry
	env.Exec.OnQuery = func(e core.TraceEntry) { trace = append(trace, e) }
	if err := env.Exec.ComputeDelta(core.AllBase(env.W.View), []relalg.CSN{a, a}, b); err != nil {
		return nil, err
	}

	// Roll the view from t_a to t_b and compare against recomputation.
	dv, err := env.image(rel, a, func() relalg.CSN { return b })
	if err == nil {
		err = core.NewApplier(dv).RollTo(b)
	}
	if err != nil {
		return nil, err
	}
	match, err := env.matchesRecompute(dv)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		fmt.Sprintf("F7 — region coverage for V_(%d,%d]: query rectangles net to the L-shaped region", a, b),
		"query", "kind", "exec(t)", "rows")
	for _, e := range trace {
		t.AddRow(e.Query, e.Kind.String(), int64(e.Exec), e.Rows)
	}
	t.AddRow("rolled V_a + Δ == recomputed V_b:", pass(match), "", "")
	if !match {
		return t, fmt.Errorf("F7: rolled view does not match recomputation")
	}
	return t, nil
}

// F8 reproduces Figure 8: the Propagate process computes consecutive view
// deltas V_{a,b}, V_{b,c}, V_{c,d} with an identical query pattern per
// iteration (2n−1 queries for an n-way view when every window is non-empty:
// n forward queries and n−1 exact compensations, since snapshot execution
// makes position 0 self-contained).
func F8() (*metrics.Table, error) {
	env, err := NewEnv(workload.Chain(2, 30, 6), 5)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	env.Exec.SkipEmptyWindows = false

	d := workload.NewDriver(env.DB, env.W, 6)
	last, err := d.Run(30)
	if err != nil {
		return nil, err
	}
	if err := env.Cap.WaitProgress(last); err != nil {
		return nil, err
	}

	var perIter []int
	count := 0
	env.Exec.OnQuery = func(core.TraceEntry) { count++ }
	p := core.NewPropagator(env.Exec, 0, core.FixedInterval(10))
	t := metrics.NewTable("F8 — Propagate: consecutive ComputeDelta iterations (n=2)",
		"iteration", "interval", "queries", "hwm")
	prev := relalg.CSN(0)
	for i := 0; i < 3; i++ {
		count = 0
		if err := p.Step(); err != nil {
			return nil, err
		}
		perIter = append(perIter, count)
		t.AddRow(i+1, fmt.Sprintf("(%d,%d]", prev, p.HWM()), count, int64(p.HWM()))
		prev = p.HWM()
	}
	for _, q := range perIter {
		if q != 3 {
			return t, fmt.Errorf("F8: each iteration should run 3 queries for n=2, got %v", perIter)
		}
	}
	return t, nil
}

// F9 reproduces Figure 9: rolling propagation with a narrow interval for R1
// and a wide one for R2. The table shows each step's forward query, the
// compensations it triggered, the per-relation progress, and the high-water
// mark pinned at min(tfwd) — the lowest shared-ledger boundary any relation
// still has pending.
func F9() (*metrics.Table, error) {
	env, err := NewEnv(workload.Chain(2, 30, 6), 7)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	env.Exec.SkipEmptyWindows = false

	d := workload.NewDriver(env.DB, env.W, 8)
	last, err := d.Run(36)
	if err != nil {
		return nil, err
	}
	if err := env.Cap.WaitProgress(last); err != nil {
		return nil, err
	}

	var forward string
	comps := 0
	env.Exec.OnQuery = func(e core.TraceEntry) {
		if e.Kind == core.KindForward {
			forward = e.Query
		} else {
			comps++
		}
	}
	rp := core.NewRollingPropagator(env.Exec, 0, core.PerRelationIntervals(4, 12))
	t := metrics.NewTable("F9 — RollingPropagate with per-relation intervals δ = [4, 12] (n=2)",
		"step", "forward query", "comps", "tfwd", "hwm")
	for i := 0; i < 9 && rp.HWM() < last; i++ {
		forward, comps = "(skipped: empty window)", 0
		if err := rp.Step(); err != nil {
			return nil, err
		}
		tf := rp.TFwd()
		t.AddRow(i+1, forward, comps, fmt.Sprintf("%v", []int64{int64(tf[0]), int64(tf[1])}), int64(rp.HWM()))
	}
	if err := DrainRolling(rp, last); err != nil {
		return nil, err
	}
	t.AddRow("…", "(drained to hwm)", "", "", int64(rp.HWM()))
	if rp.HWM() < last {
		return t, fmt.Errorf("F9: failed to reach hwm %d", last)
	}
	return t, nil
}

func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
