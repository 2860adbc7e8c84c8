package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// A1 is an ablation on the propagation-query executor: with hash indexes on
// the base tables' join columns, a forward query probes the index once per
// delta row instead of scanning the base table, so per-step cost becomes
// proportional to the delta window instead of the table size. Shape:
// indexed propagation scans orders of magnitude fewer rows and drains the
// same backlog faster as tables grow.
func A1(s Scale) (*metrics.Table, error) {
	updates := s.pick(150, 600)
	t := metrics.NewTable(
		fmt.Sprintf("A1 — ablation: index nested-loop vs full-scan propagation (%d updates, δ=8)", updates),
		"table rows", "access path", "rows scanned", "index probes", "drain time", "match")

	for _, rows := range []int{s.pick(500, 2000), s.pick(2000, 10000)} {
		for _, indexed := range []bool{false, true} {
			newEnvFn := NewEnvBare
			if indexed {
				newEnvFn = NewEnv
			}
			env, err := newEnvFn(workload.Chain(2, rows, rows/10), 71)
			if err != nil {
				return nil, err
			}
			rel, at, err := core.FullRefresh(env.DB, env.W.View)
			if err != nil {
				env.Close()
				return nil, err
			}
			d := workload.NewDriver(env.DB, env.W, 72)
			last, err := d.Run(updates)
			if err != nil {
				env.Close()
				return nil, err
			}
			if err := env.Cap.WaitProgress(last); err != nil {
				env.Close()
				return nil, err
			}

			before := env.DB.Stats()
			start := time.Now()
			rp := core.NewRollingPropagator(env.Exec, at, core.FixedInterval(8))
			if err := DrainRolling(rp, last); err != nil {
				env.Close()
				return nil, err
			}
			dur := time.Since(start)
			after := env.DB.Stats()

			dv, err := env.image(rel, at, rp.HWM)
			if err == nil {
				_, err = core.NewApplier(dv).RollToHWM()
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
			path := "full scan"
			if indexed {
				path = "index probes"
			}
			t.AddRow(rows, path, after.RowsScanned-before.RowsScanned,
				after.IndexProbes-before.IndexProbes, dur, pass(match))
			env.Close()
			if !match {
				return t, fmt.Errorf("A1: %s at %d rows diverged", path, rows)
			}
		}
	}
	return t, nil
}
