package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/relalg"
	"repro/internal/workload"
)

// Scale sizes the claim experiments. Quick keeps everything small enough
// for CI benchmarks; the rollbench CLI uses the full scale.
type Scale struct {
	Quick bool
}

func (s Scale) pick(quick, full int) int {
	if s.Quick {
		return quick
	}
	return full
}

// E1 measures incremental refresh against full recomputation as the amount
// of change grows (the Section 1 premise: "incremental refresh ... is often
// less expensive than a full, non-incremental refresh"). Shape: incremental
// wins by a wide margin for small deltas and the gap narrows as the delta
// approaches the table size.
func E1(s Scale) (*metrics.Table, error) {
	n := s.pick(400, 4000)
	t := metrics.NewTable(
		fmt.Sprintf("E1 — incremental vs full refresh, %d-row tables, 2-way join", n),
		"updates", "full refresh", "incremental", "speedup", "match")
	for _, frac := range []int{100, 20, 5, 1} {
		updates := n / frac
		env, err := NewEnv(workload.Chain(2, n, n/10), int64(frac))
		if err != nil {
			return nil, err
		}
		rel, at, err := core.FullRefresh(env.DB, env.W.View)
		if err != nil {
			env.Close()
			return nil, err
		}
		d := workload.NewDriver(env.DB, env.W, int64(frac)+100)
		last, err := d.Run(updates)
		if err != nil {
			env.Close()
			return nil, err
		}
		if err := env.Cap.WaitProgress(last); err != nil {
			env.Close()
			return nil, err
		}

		startFull := time.Now()
		full, _, err := core.FullRefresh(env.DB, env.W.View)
		if err != nil {
			env.Close()
			return nil, err
		}
		fullDur := time.Since(startFull)

		rp := core.NewRollingPropagator(env.Exec, at, core.FixedInterval(relalg.CSN(updates)))
		dv, err := env.image(rel, at, rp.HWM)
		if err != nil {
			env.Close()
			return nil, err
		}
		startInc := time.Now()
		if err := DrainRolling(rp, last); err != nil {
			env.Close()
			return nil, err
		}
		if _, err := core.NewApplier(dv).RollToHWM(); err != nil {
			env.Close()
			return nil, err
		}
		incDur := time.Since(startInc)

		img, err := dv.Image()
		if err != nil {
			env.Close()
			return nil, err
		}
		match := relalg.Equivalent(img, full)
		t.AddRow(updates, fullDur, incDur, float64(fullDur)/float64(incDur), pass(match))
		env.Close()
		if !match {
			return t, fmt.Errorf("E1: incremental state diverged at %d updates", updates)
		}
	}
	return t, nil
}

// E2 measures the contention-control claim: a backlog of captured changes
// is propagated while writers keep arriving. The propagation interval
// bounds the size (and lock-hold time) of each propagation transaction, so
// writer latency degrades as intervals grow, worst of all under the single
// atomic synchronous transaction (Equation 1). Shape: writer p99/max
// latency and lock-wait time increase with the interval.
func E2(s Scale) (*metrics.Table, error) {
	rows := s.pick(400, 1500)
	backlog := s.pick(200, 800)
	// A small key domain gives the join high fanout, so a propagation
	// transaction's lock-hold time grows with its window width — the
	// mechanism behind the interval/contention trade-off.
	keys := 20
	t := metrics.NewTable(
		fmt.Sprintf("E2 — writer latency while a %d-commit backlog propagates (%d-row tables)", backlog, rows),
		"propagation", "writer txns", "writer mean", "writer p99", "writer max", "lock wait total", "drain time")

	type config struct {
		name  string
		drain func(env *Env, target relalg.CSN) error
	}
	configs := []config{
		{"rolling δ=8", func(env *Env, target relalg.CSN) error {
			return DrainRolling(core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(8)), target)
		}},
		{"rolling δ=128", func(env *Env, target relalg.CSN) error {
			return DrainRolling(core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(128)), target)
		}},
		{fmt.Sprintf("rolling δ=%d (whole backlog)", backlog), func(env *Env, target relalg.CSN) error {
			return DrainRolling(core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(relalg.CSN(backlog)*2)), target)
		}},
		{"sync Eq.1 (one atomic txn)", func(env *Env, target relalg.CSN) error {
			a := relalg.CSN(0)
			for a < target {
				b, _, err := core.SyncPropagateEq1(env.DB, env.Cap, env.W.View, env.Dest, a)
				if err != nil {
					return err
				}
				a = b
			}
			return nil
		}},
	}

	for _, cfg := range configs {
		env, err := NewEnv(workload.Chain(2, rows, keys), 11)
		if err != nil {
			return nil, err
		}
		// Build the backlog with propagation suspended.
		d := workload.NewDriver(env.DB, env.W, 12)
		target, err := d.Run(backlog)
		if err != nil {
			env.Close()
			return nil, err
		}
		if err := env.Cap.WaitProgress(target); err != nil {
			env.Close()
			return nil, err
		}

		// Drain the backlog while concurrent writers measure their latency.
		before := env.DB.Stats()
		lat := metrics.NewHistogram()
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := workload.NewDriver(env.DB, env.W, 13)
			for {
				select {
				case <-done:
					return
				default:
				}
				start := time.Now()
				if _, err := probe.Step(); err != nil {
					return
				}
				lat.Observe(time.Since(start))
				// Pace the probe so it samples latency without flooding the
				// delta tables (which would inflate every configuration's
				// compensation work and drown the signal).
				time.Sleep(200 * time.Microsecond)
			}
		}()
		drainStart := time.Now()
		drainErr := cfg.drain(env, target)
		drainDur := time.Since(drainStart)
		close(done)
		wg.Wait()
		if drainErr != nil {
			env.Close()
			return nil, drainErr
		}
		after := env.DB.Stats()
		t.AddRow(cfg.name, lat.Count(), lat.Mean(), lat.Quantile(0.99), lat.Max(),
			after.Txn.LockWaitTime-before.Txn.LockWaitTime, drainDur)
		env.Close()
	}
	return t, nil
}

// E3 demonstrates asynchrony (Section 3.2): every propagation query for the
// interval (0, t_new] executes in wall-clock time strictly after t_new — the
// 4pm–5pm delta is computed after 5pm — while reading the base tables
// through read views at CSNs no later than t_new, and the result is still
// exact. (Before the snapshot layer, a query's executed time was whatever
// commit CSN it happened to land on; now executed time equals intended time
// by construction, which is what the assertion checks.)
func E3(s Scale) (*metrics.Table, error) {
	updates := s.pick(150, 1000)
	env, err := NewEnv(workload.Chain(2, s.pick(200, 1000), 40), 21)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	rel, at, err := core.FullRefresh(env.DB, env.W.View)
	if err != nil {
		return nil, err
	}

	// Phase 1: the update burst, with propagation suspended.
	startBurst := time.Now()
	d := workload.NewDriver(env.DB, env.W, 22)
	tNew, err := d.Run(updates)
	if err != nil {
		return nil, err
	}
	burstDur := time.Since(startBurst)

	// Phase 2: propagate the whole burst afterwards. Every query runs
	// wall-clock after the burst (the callback is only installed here), and
	// reads historical state: executed time at or before t_new. Only client
	// commits mint CSNs, so capture progress stops at t_new and no ledger
	// cell can straddle it.
	histQueries, totalQueries := 0, 0
	env.Exec.OnQuery = func(e core.TraceEntry) {
		totalQueries++
		if e.Exec <= tNew {
			histQueries++
		}
	}
	startProp := time.Now()
	rp := core.NewRollingPropagator(env.Exec, at, core.PerRelationIntervals(16, 48))
	if err := DrainRolling(rp, tNew); err != nil {
		return nil, err
	}
	propDur := time.Since(startProp)

	dv, err := env.image(rel, at, rp.HWM)
	if err == nil {
		err = core.NewApplier(dv).RollTo(tNew)
	}
	if err != nil {
		return nil, err
	}
	match, err := env.matchesRecompute(dv)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("E3 — asynchronous deferral: all propagation work happens after t_new",
		"metric", "value")
	t.AddRow("updates in burst", updates)
	t.AddRow("burst duration", burstDur)
	t.AddRow("t_new (CSN)", int64(tNew))
	t.AddRow("propagation duration (after burst)", propDur)
	t.AddRow("propagation queries", totalQueries)
	t.AddRow("queries reading state at/before t_new", fmt.Sprintf("%d (%.0f%%)", histQueries, 100*float64(histQueries)/float64(max(totalQueries, 1))))
	t.AddRow("rolled view == recompute", pass(match))
	if histQueries != totalQueries {
		return t, fmt.Errorf("E3: %d of %d queries read state past t_new",
			totalQueries-histQueries, totalQueries)
	}
	if !match {
		return t, fmt.Errorf("E3: deferred propagation diverged")
	}
	return t, nil
}

// E4 measures point-in-time refresh: rolling a view forward costs time
// proportional to the window width, and any intermediate point up to the
// high-water mark is reachable. Shape: cost grows with window width.
func E4(s Scale) (*metrics.Table, error) {
	updates := s.pick(400, 3000)
	env, err := NewEnv(workload.Chain(2, s.pick(100, 500), 25), 31)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	d := workload.NewDriver(env.DB, env.W, 32)
	last, err := d.Run(updates)
	if err != nil {
		return nil, err
	}
	rp := core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(32))
	if err := DrainRolling(rp, last); err != nil {
		return nil, err
	}

	t := metrics.NewTable("E4 — point-in-time refresh cost vs window width",
		"window (commits)", "refreshes", "rows applied", "total time", "per refresh")
	for _, width := range []relalg.CSN{1, 8, 64, relalg.CSN(updates)} {
		dv := engine.NewDerived(env.Dest, rp.HWM)
		applier := core.NewApplier(dv)
		start := time.Now()
		refreshes := 0
		for ts := width; ts <= last; ts += width {
			if err := applier.RollTo(ts); err != nil {
				return nil, err
			}
			refreshes++
		}
		if dv.MatTime() < last {
			if err := applier.RollTo(last); err != nil {
				return nil, err
			}
			refreshes++
		}
		dur := time.Since(start)
		t.AddRow(int64(width), refreshes, applier.RowsApplied(), dur, dur/time.Duration(max(refreshes, 1)))
	}
	return t, nil
}

// E5 compares the query budgets of Section 3.1: Equation 1 needs 2^n−1
// queries, Equation 2 needs n (two of them unrealizable — served here from
// reconstructed snapshots), and asynchronous ComputeDelta needs
// n + n·Q(n−1) small queries, fewer when empty delta windows are elided.
func E5(s Scale) (*metrics.Table, error) {
	t := metrics.NewTable("E5 — queries per propagated interval, by method",
		"n", "Eq.1 (2^n−1)", "Eq.2 (n)", "async (all)", "async (elided)", "agree")
	maxN := s.pick(3, 4)
	for n := 2; n <= maxN; n++ {
		counts := make(map[string]int)
		var rolled [3]*relalg.Relation

		for vi, variant := range []string{"eq1", "async-all", "async-skip"} {
			env, err := NewEnv(workload.Chain(n, 30, 6), 41)
			if err != nil {
				return nil, err
			}
			d := workload.NewDriver(env.DB, env.W, 42)
			last, err := d.Run(40)
			if err != nil {
				env.Close()
				return nil, err
			}
			switch variant {
			case "eq1":
				_, q, err := core.SyncPropagateEq1(env.DB, env.Cap, env.W.View, env.Dest, 0)
				if err != nil {
					env.Close()
					return nil, err
				}
				counts["eq1"] = q
				rolled[vi] = relalg.NetEffect(relalg.Window(env.Dest.All(), 0, last))
				// Eq.2 on the same history, into a scratch delta (its query
				// count is fixed at n; its output is checked by core tests).
				if err := env.ResetDest(); err != nil {
					env.Close()
					return nil, err
				}
				_, q2, err := core.SyncPropagateEq2(env.DB, env.Cap, env.W.View, env.Dest, 0)
				if err != nil {
					env.Close()
					return nil, err
				}
				counts["eq2"] = q2
			case "async-all", "async-skip":
				env.Exec.SkipEmptyWindows = variant == "async-skip"
				q := 0
				env.Exec.OnQuery = func(core.TraceEntry) { q++ }
				if err := env.Exec.ComputeDelta(core.AllBase(env.W.View), make([]relalg.CSN, n), last); err != nil {
					env.Close()
					return nil, err
				}
				counts[variant] = q
				rolled[vi] = relalg.NetEffect(relalg.Window(env.Dest.All(), 0, last))
			}
			env.Close()
		}
		agree := relalg.Equivalent(rolled[0], rolled[1]) && relalg.Equivalent(rolled[1], rolled[2])
		t.AddRow(n, counts["eq1"], counts["eq2"], counts["async-all"], counts["async-skip"], pass(agree))
		if !agree {
			return t, fmt.Errorf("E5: methods disagree at n=%d", n)
		}
	}
	return t, nil
}

// E6 is the star-schema experiment motivating per-relation intervals
// (Section 3.4): with a single interval sized for the hot fact table, the
// rarely-updated dimensions suffer many tiny forward queries; per-relation
// intervals cut the query count. Shape: rolling with wide dimension
// intervals runs fewer queries and less total work than single-interval
// Propagate over the same history.
func E6(s Scale) (*metrics.Table, error) {
	updates := s.pick(300, 1500)
	t := metrics.NewTable(
		fmt.Sprintf("E6 — star schema (fact + 2 dims, fact gets 20x updates, %d updates total)", updates),
		"strategy", "queries", "skipped empty", "delta rows", "time", "match")

	type strategy struct {
		name string
		run  func(env *Env, mat relalg.CSN, last relalg.CSN) error
		skip bool
	}
	strategies := []strategy{
		{"Propagate δ=8 (single knob)", func(env *Env, mat, last relalg.CSN) error {
			return DrainPropagate(core.NewPropagator(env.Exec, mat, core.FixedInterval(8)), last)
		}, false},
		{"Rolling δ=[8,128,128] (per-relation)", func(env *Env, mat, last relalg.CSN) error {
			return DrainRolling(core.NewRollingPropagator(env.Exec, mat, core.PerRelationIntervals(8, 128, 128)), last)
		}, false},
		{"Rolling δ=[8,128,128] + empty-window elision", func(env *Env, mat, last relalg.CSN) error {
			return DrainRolling(core.NewRollingPropagator(env.Exec, mat, core.PerRelationIntervals(8, 128, 128)), last)
		}, true},
	}

	for _, st := range strategies {
		env, err := NewEnv(workload.StarSchema(2, s.pick(300, 2000), s.pick(40, 200), 20), 51)
		if err != nil {
			return nil, err
		}
		rel, at, err := core.FullRefresh(env.DB, env.W.View)
		if err != nil {
			env.Close()
			return nil, err
		}
		d := workload.NewDriver(env.DB, env.W, 52)
		last, err := d.Run(updates)
		if err != nil {
			env.Close()
			return nil, err
		}
		env.Exec.SkipEmptyWindows = st.skip
		queries := 0
		env.Exec.OnQuery = func(core.TraceEntry) { queries++ }

		start := time.Now()
		if err := st.run(env, at, last); err != nil {
			env.Close()
			return nil, err
		}
		dur := time.Since(start)

		dv, err := env.image(rel, at, func() relalg.CSN { return last })
		if err == nil {
			err = core.NewApplier(dv).RollTo(last)
		}
		if err != nil {
			env.Close()
			return nil, err
		}
		match, err := env.matchesRecompute(dv)
		if err != nil {
			env.Close()
			return nil, err
		}
		es := env.Exec.Stats()
		t.AddRow(st.name, queries, es.SkippedEmpty, es.RowsProduced, dur, pass(match))
		env.Close()
		if !match {
			return t, fmt.Errorf("E6: %s diverged", st.name)
		}
	}
	return t, nil
}

// E7 compares the capture architectures of Section 5: log capture keeps
// writer commits lean but trails the log; trigger capture is synchronous
// but expands every writer's commit footprint. Shape: trigger mode has
// higher writer latency; log mode shows capture lag that must be awaited.
func E7(s Scale) (*metrics.Table, error) {
	updates := s.pick(500, 5000)
	t := metrics.NewTable(
		fmt.Sprintf("E7 — capture architectures (%d single-row update transactions)", updates),
		"mode", "writer mean", "writer p99", "wall time", "rows captured", "lag at end (commits)")

	for _, mode := range []string{"log (DPropR-style)", "trigger"} {
		db, err := engine.Open(engine.Config{})
		if err != nil {
			return nil, err
		}
		w := workload.Chain(2, s.pick(100, 500), 20)
		if err := w.Setup(db, rand.New(rand.NewSource(61))); err != nil {
			db.Close()
			return nil, err
		}
		var rowsCaptured func() int64
		var progress func() relalg.CSN
		var logCap interface{ Wait() }
		if mode == "trigger" {
			tc := capture.NewTriggerCapture(db)
			rowsCaptured = tc.RowsCaptured
			progress = tc.Progress
		} else {
			lc := capture.NewLogCapture(db)
			lc.Start()
			rowsCaptured = lc.RowsCaptured
			progress = lc.Progress
			logCap = lc
		}

		d := workload.NewDriver(db, w, 62)
		lat := metrics.NewHistogram()
		start := time.Now()
		var last relalg.CSN
		for i := 0; i < updates; i++ {
			s := time.Now()
			csn, err := d.Step()
			if err != nil {
				db.Close()
				return nil, err
			}
			lat.Observe(time.Since(s))
			last = csn
		}
		wall := time.Since(start)
		lag := last - progress()
		if lag < 0 {
			lag = 0
		}
		t.AddRow(mode, lat.Mean(), lat.Quantile(0.99), wall, rowsCaptured(), int64(lag))
		db.Close()
		if logCap != nil {
			logCap.Wait()
		}
	}
	return t, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
