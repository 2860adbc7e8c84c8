package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/relalg"
	"repro/internal/workload"
)

// PartitionABEntry records one partition-count comparison for the
// machine-readable benchmark output. The arms drain the identical skewed
// star-schema update history with scan propagation: unpartitioned (the
// seed behavior) and 4-way hash partitioning. SpeedupHash is the per-step
// throughput ratio of the hash arm against the unpartitioned arm.
type PartitionABEntry struct {
	Benchmark   string  `json:"benchmark"`
	FactRows    int     `json:"fact_rows"`
	Skew        float64 `json:"skew"`
	Partitions  int     `json:"partitions"`
	Reps        int     `json:"reps"`
	OneNs       int64   `json:"one_ns"`
	HashNs      int64   `json:"hash_ns"`
	OneStepNs   int64   `json:"one_step_ns"`
	HashStepNs  int64   `json:"hash_step_ns"`
	SpeedupHash float64 `json:"speedup_hash"`
	SliceJobs   int64   `json:"slice_jobs"`
	Match       bool    `json:"match"`
}

// partArm is one configuration of the partition A/B experiment.
type partArm struct {
	name  string
	parts int
}

// partArmResult is one repetition of one arm: the measured drain plus the
// deterministic work counters (identical across repetitions of the same
// seeded history — only the clock varies).
type partArmResult struct {
	dur   time.Duration
	steps int64
	jobs  int64
	match bool
}

// runPartArm builds a fresh environment, drains the seeded skewed
// star-schema history under the arm's partition configuration, verifies
// the view against full recomputation, and returns the measured drain.
func runPartArm(arm partArm, updates, dimRows, factRows int, skew float64) (partArmResult, error) {
	var res partArmResult
	w := workload.StarSchema(2, factRows, dimRows, 20)
	env, err := NewEnvCfg(w, 91, false, engine.Config{Partitions: arm.parts})
	if err != nil {
		return res, err
	}
	defer env.Close()
	// Skew every table's update stream (one Zipf over the shared key
	// domain: the hot product's fact rows AND its dimension rows churn
	// most) but keep the initial loads uniform. Update-stream skew is the
	// propagation-relevant kind — it decides which delta windows land in
	// which partitions — while initial-load skew would concentrate rows of
	// every relation on one key and blow up the irreducible join fan-out,
	// drowning the reducible scan work all arms compete on. The specs are
	// mutated after Setup so only the driver below sees the skew.
	for i := range w.Tables {
		w.Tables[i].Skew = skew
		// Balanced insert/delete traffic keeps per-key row counts (and so
		// the irreducible join fan-out of the hot keys) stable across the
		// run instead of growing with the update count.
		w.Tables[i].InsertFraction = 0.5
	}
	mv, err := core.Materialize(env.DB, env.W.View)
	if err != nil {
		return res, err
	}
	d := workload.NewDriver(env.DB, env.W, 92)
	rp := core.NewRollingPropagator(env.Exec, mv.MatTime(), core.PerRelationIntervals(4, 64, 64))
	const phases = 4
	var last relalg.CSN
	for p := 0; p < phases; p++ {
		n := updates / phases
		if p == phases-1 {
			n = updates - n*(phases-1)
		}
		if last, err = d.Run(n); err != nil {
			return res, err
		}
		if err := env.Cap.WaitProgress(last); err != nil {
			return res, err
		}
		start := time.Now()
		if err := DrainRolling(rp, last); err != nil {
			return res, err
		}
		res.dur += time.Since(start)
	}
	res.steps = rp.Steps()
	st := env.DB.Stats()
	for _, n := range st.PartSliceJobs {
		res.jobs += n
	}

	applier := core.NewApplier(mv, env.Dest, func() relalg.CSN { return last })
	if err := applier.RollTo(last); err != nil {
		return res, err
	}
	full, _, err := core.FullRefresh(env.DB, env.W.View)
	if err != nil {
		return res, err
	}
	res.match = relalg.Equivalent(mv.AsRelation(), full)
	return res, nil
}

// PartitionAB measures what hash partitioning buys rolling propagation on
// a skewed star schema. All arms use scan propagation (no indexes), where
// the partitioning layer's work reduction is direct: a sliced step's
// co-partitioned base scans read one shard instead of the whole heap,
// and slices whose delta window is empty are skipped outright. Every arm
// drains the identical update history (victim selection in DeleteWhere is
// partition-count-independent) and is verified against a full
// recomputation. Each arm repeats a few times and
// reports the fastest repetition: the per-seed work is deterministic, so
// the minimum rejects scheduler and GC noise rather than cherry-picking.
func PartitionAB(s Scale) (*metrics.Table, []PartitionABEntry, error) {
	updates := s.pick(200, 1600)
	// The key domain stays at 150 across scales: it sets the Zipf head's
	// share of the update stream (hot-key concentration), which is the
	// regime under test, while factRows scales the base-table work.
	dimRows := 150
	factRows := s.pick(2000, 8000)
	const reps = 2
	const nparts = 4
	const skew = 1.8
	t := metrics.NewTable(
		fmt.Sprintf("PARTITION — 1 vs %d hash partitions, scan propagation (skewed star: fact %d rows, 2 dims x %d, zipf %.1f, %d updates, best of %d)",
			nparts, factRows, dimRows, skew, updates, reps),
		"arm", "drain", "ns/step", "steps", "slice jobs", "match")

	arms := []partArm{
		{"1 partition", 1},
		{fmt.Sprintf("%d hash", nparts), nparts},
	}

	var entries []PartitionABEntry
	var best [2]partArmResult
	var stepNs [2]int64
	match := true
	for mode, arm := range arms {
		armMatch := true
		for rep := 0; rep < reps; rep++ {
			res, err := runPartArm(arm, updates, dimRows, factRows, skew)
			if err != nil {
				return t, entries, err
			}
			if !res.match {
				armMatch = false
				match = false
			}
			if rep == 0 || res.dur < best[mode].dur {
				best[mode] = res
			}
		}
		if best[mode].steps > 0 {
			stepNs[mode] = best[mode].dur.Nanoseconds() / best[mode].steps
		}
		b := best[mode]
		t.AddRow(arm.name, b.dur, stepNs[mode], b.steps, b.jobs, pass(armMatch))
	}
	entries = append(entries, PartitionABEntry{
		Benchmark:   "rolling propagation, skewed star schema",
		FactRows:    factRows,
		Skew:        skew,
		Partitions:  nparts,
		Reps:        reps,
		OneNs:       best[0].dur.Nanoseconds(),
		HashNs:      best[1].dur.Nanoseconds(),
		OneStepNs:   stepNs[0],
		HashStepNs:  stepNs[1],
		SpeedupHash: float64(stepNs[0]) / float64(stepNs[1]),
		SliceJobs:   best[1].jobs,
		Match:       match,
	})
	if !match {
		return t, entries, fmt.Errorf("partition AB: an arm diverged from full recomputation")
	}
	return t, entries, nil
}
