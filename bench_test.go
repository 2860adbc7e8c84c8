package rollingjoin_test

// This file maps every experiment of EXPERIMENTS.md to a testing.B target,
// one benchmark per figure/claim of the paper. The experiments themselves
// live in internal/bench and self-verify against recomputation oracles;
// each benchmark iteration runs one full experiment at quick scale. Run
// cmd/rollbench for the full-scale tables.
//
// This is an external test package (rollingjoin_test): internal/bench
// imports the facade for the MULTIVIEW experiment, so an in-package test
// importing bench would cycle.

import (
	"testing"

	rollingjoin "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/workload"
)

var quick = bench.Scale{Quick: true}

func runExperiment(b *testing.B, fn func() (*metrics.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatalf("%v\n%s", err, tbl)
		}
	}
}

// BenchmarkF4ComputeDelta reproduces Figure 4 / Equation 3: the
// asynchronous ComputeDelta query structure for a 2-way join.
func BenchmarkF4ComputeDelta(b *testing.B) {
	runExperiment(b, bench.F4)
}

// BenchmarkF7RegionCoverage reproduces Figure 7: the four query regions
// net to the L-shaped view delta region.
func BenchmarkF7RegionCoverage(b *testing.B) {
	runExperiment(b, bench.F7)
}

// BenchmarkF8Propagate reproduces Figure 8: the Propagate process's
// iteration schedule.
func BenchmarkF8Propagate(b *testing.B) {
	runExperiment(b, bench.F8)
}

// BenchmarkF9Rolling reproduces Figure 9: rolling propagation with
// per-relation intervals.
func BenchmarkF9Rolling(b *testing.B) {
	runExperiment(b, bench.F9)
}

// BenchmarkE1IncrementalVsFull measures incremental refresh against full
// recomputation across delta sizes.
func BenchmarkE1IncrementalVsFull(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E1(quick) })
}

// BenchmarkE2IntervalContention measures writer latency while a backlog
// propagates at different interval sizes.
func BenchmarkE2IntervalContention(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E2(quick) })
}

// BenchmarkE3AsyncDeferral verifies and times fully deferred propagation.
func BenchmarkE3AsyncDeferral(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E3(quick) })
}

// BenchmarkE4PointInTime measures point-in-time refresh cost vs window
// width.
func BenchmarkE4PointInTime(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E4(quick) })
}

// BenchmarkE5Eq1VsEq2 compares the query budgets of the synchronous
// baselines and the asynchronous algorithm.
func BenchmarkE5Eq1VsEq2(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E5(quick) })
}

// BenchmarkE6StarSchema compares single-interval and per-relation-interval
// propagation on the skewed star-schema workload.
func BenchmarkE6StarSchema(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E6(quick) })
}

// BenchmarkE7CaptureModes compares log-based and trigger-based delta
// capture.
func BenchmarkE7CaptureModes(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.E7(quick) })
}

// BenchmarkA1IndexAblation compares index-nested-loop and full-scan
// propagation queries.
func BenchmarkA1IndexAblation(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.A1(quick) })
}

// BenchmarkA2AdaptiveIntervals compares fixed and adaptive interval
// policies on the star schema.
func BenchmarkA2AdaptiveIntervals(b *testing.B) {
	runExperiment(b, func() (*metrics.Table, error) { return bench.A2(quick) })
}

// --- micro-benchmarks on the core machinery ---

// BenchmarkPropagationStep measures one rolling forward step (query
// execution, delta append, commit) on a warm 2-way join.
func BenchmarkPropagationStep(b *testing.B) {
	env, err := bench.NewEnv(workload.Chain(2, 1000, 100), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	d := workload.NewDriver(env.DB, env.W, 2)
	rp := core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		last, err := d.Run(4)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Cap.WaitProgress(last); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := rp.Step(); err != nil && err != core.ErrNoProgress {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagationAllocs reports allocations per propagation step
// (run with -benchmem). The step arm times the full engine step (whose
// transaction and WAL machinery allocates by design); the hotpath arm
// isolates the executor pipeline itself — scan, hash join, filter,
// projection over a reused arena — and must report 0 allocs/op in steady
// state, which CI gates on.
func BenchmarkPropagationAllocs(b *testing.B) {
	b.Run("hotpath", func(b *testing.B) {
		base := relalg.NewRelation(nil)
		for i := 0; i < 1000; i++ {
			base.Add(tuple.Tuple{tuple.Int(int64(i % 100)), tuple.Int(int64(i))}, 1, 1)
		}
		delta := relalg.NewRelation(nil)
		for i := 0; i < 100; i++ {
			delta.Add(tuple.Tuple{tuple.Int(int64(i % 100)), tuple.Int(int64(i + 5000))}, 1, 2)
		}
		a := exec.NewArena()
		defer a.Release()
		root := &exec.Project{
			Child: &exec.Filter{
				Child: &exec.HashJoin{
					Left:      exec.NewRelationScan(delta, nil),
					Right:     exec.NewRelationScan(base, nil),
					On:        []relalg.JoinOn{{LeftCol: 0, RightCol: 0}},
					BuildLeft: true,
					A:         a,
				},
				Pred: relalg.ColCol{ColA: 1, Op: relalg.OpNE, ColB: 3},
			},
			Idx: []int{2, 3, 0, 1},
		}
		var rows int64
		sink := func(out *relalg.Batch) error {
			rows += int64(out.Len())
			return nil
		}
		run := func() {
			rows = 0
			if _, _, err := exec.DrainWith(root, a, 0, sink); err != nil {
				b.Fatal(err)
			}
			if rows == 0 {
				b.Fatal("hotpath pipeline produced no rows")
			}
		}
		// One warm-up drain grows the arena's batches, hash table, and
		// column capacities; the timed loop then runs entirely on them.
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	b.Run("step", func(b *testing.B) {
		env, err := bench.NewEnvBare(workload.Chain(2, 1000, 100), 1)
		if err != nil {
			b.Fatal(err)
		}
		defer env.Close()
		d := workload.NewDriver(env.DB, env.W, 2)
		rp := core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			last, err := d.Run(4)
			if err != nil {
				b.Fatal(err)
			}
			if err := env.Cap.WaitProgress(last); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := rp.Step(); err != nil && err != core.ErrNoProgress {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyWindow measures rolling a materialized view forward by one
// commit.
func BenchmarkApplyWindow(b *testing.B) {
	env, err := bench.NewEnv(workload.Chain(2, 500, 50), 3)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	d := workload.NewDriver(env.DB, env.W, 4)
	last, err := d.Run(b.N + 10)
	if err != nil {
		b.Fatal(err)
	}
	rp := core.NewRollingPropagator(env.Exec, 0, core.FixedInterval(64))
	if err := bench.DrainRolling(rp, last); err != nil {
		b.Fatal(err)
	}
	schema, err := env.W.View.Schema(env.DB)
	if err != nil {
		b.Fatal(err)
	}
	mv := core.NewMaterializedView("bench", schema, 0)
	applier := core.NewApplier(mv, env.Dest, rp.HWM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := applier.RollTo(rollingjoin.CSN(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterTxn measures a single-row writer transaction with log
// capture active.
func BenchmarkWriterTxn(b *testing.B) {
	env, err := bench.NewEnv(workload.Chain(2, 100, 20), 5)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	d := workload.NewDriver(env.DB, env.W, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateStepAllocs measures the incremental aggregate
// operator's steady-state step: folding one upstream commit's delta rows
// into existing group state (group-level compensation) and emitting the
// group-change pairs. The fold path runs entirely on reused scratch
// (decode sink, key buffers, pooled stages, double-buffered output
// encodings), so what remains is the emission floor — one btree-retained
// buffer per appended group-change row. The CI gate holds allocs/op at
// rowsPerStep, i.e. <= 1 alloc per folded source row.
func BenchmarkAggregateStepAllocs(b *testing.B) {
	eng, err := engine.Open(engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	src := tuple.NewSchema(
		tuple.Column{Name: "g", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindFloat})
	up, err := eng.CreateStandaloneDelta("agg_bench_src", src)
	if err != nil {
		b.Fatal(err)
	}
	def := &core.AggregateDef{
		Name:    "agg_bench",
		Source:  "agg_bench_src",
		GroupBy: []int{0},
		Aggs: []core.AggCol{
			{Func: core.AggCount, Name: "n"},
			{Func: core.AggSum, Col: 1, Name: "total"},
		},
	}
	out, err := def.OutSchema(src)
	if err != nil {
		b.Fatal(err)
	}
	dest, err := eng.CreateStandaloneDelta("agg_bench_dest", out)
	if err != nil {
		b.Fatal(err)
	}
	var hwm relalg.CSN
	av := core.NewAggView(def, src, out, up, func() relalg.CSN { return hwm }, dest)

	const groups = 64
	const rowsPerStep = 256
	// Pre-encode one commit's worth of rows per distinct timestamp so the
	// append side costs nothing inside the timed region.
	encRow := func(g int64, v float64) []byte {
		return tuple.EncodeRow(nil, tuple.Tuple{tuple.Int(g), tuple.Float(v)})
	}
	rows := make([][]byte, rowsPerStep)
	for i := range rows {
		rows[i] = encRow(int64(i%groups), float64(i%97))
	}
	// Seed every group so the timed steps update existing state.
	ts := relalg.CSN(1)
	for _, r := range rows {
		up.AppendEncoded(ts, 1, r, tuple.Null())
	}
	hwm = ts
	if err := av.Step(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts++
		for _, r := range rows {
			up.AppendEncoded(ts, 1, r, tuple.Null())
		}
		hwm = ts
		b.StartTimer()
		if err := av.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if av.Groups() != groups {
		b.Fatalf("groups = %d, want %d", av.Groups(), groups)
	}
}
