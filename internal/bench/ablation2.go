package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// A2 is an ablation on interval selection: the adaptive policy (size each
// relation's interval to a target number of delta rows per query) against
// fixed intervals, on the skewed star-schema workload. Shape: adaptive
// propagation approaches the hand-tuned per-relation configuration without
// knowing the workload in advance, and beats a single fixed interval.
func A2(s Scale) (*metrics.Table, error) {
	updates := s.pick(300, 1200)
	t := metrics.NewTable(
		fmt.Sprintf("A2 — ablation: interval policies on the star schema (%d updates, fact 20x)", updates),
		"policy", "queries", "skipped empty", "drain time", "match")

	type policyCase struct {
		name string
		make func(env *Env) core.IntervalPolicy
	}
	cases := []policyCase{
		{"fixed δ=8 (tuned for fact)", func(*Env) core.IntervalPolicy {
			return core.FixedInterval(8)
		}},
		{"fixed δ=256 (tuned for dims)", func(*Env) core.IntervalPolicy {
			return core.FixedInterval(256)
		}},
		{"hand-tuned δ=[8,256,256]", func(*Env) core.IntervalPolicy {
			return core.PerRelationIntervals(8, 256, 256)
		}},
		{"adaptive (target 32 rows/query)", func(env *Env) core.IntervalPolicy {
			return core.AdaptiveInterval(env.DB, env.W.View, 32)
		}},
	}

	for _, pc := range cases {
		env, err := NewEnv(workload.StarSchema(2, s.pick(300, 1500), s.pick(40, 150), 20), 81)
		if err != nil {
			return nil, err
		}
		rel, at, err := core.FullRefresh(env.DB, env.W.View)
		if err != nil {
			env.Close()
			return nil, err
		}
		d := workload.NewDriver(env.DB, env.W, 82)
		last, err := d.Run(updates)
		if err != nil {
			env.Close()
			return nil, err
		}
		if err := env.Cap.WaitProgress(last); err != nil {
			env.Close()
			return nil, err
		}
		queries := 0
		env.Exec.OnQuery = func(core.TraceEntry) { queries++ }

		start := time.Now()
		rp := core.NewRollingPropagator(env.Exec, at, pc.make(env))
		if err := DrainRolling(rp, last); err != nil {
			env.Close()
			return nil, err
		}
		dur := time.Since(start)

		dv, err := env.image(rel, at, rp.HWM)
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
		t.AddRow(pc.name, queries, es.SkippedEmpty, dur, pass(match))
		env.Close()
		if !match {
			return t, fmt.Errorf("A2: %s diverged", pc.name)
		}
	}
	return t, nil
}
