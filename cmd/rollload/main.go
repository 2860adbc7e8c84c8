// Command rollload is a load generator for the rolling-join system: it
// drives a configurable workload (chain join or star schema) against one or
// more maintained views and prints live throughput, maintenance, and
// contention statistics — a small "sysbench" for asynchronous view
// maintenance. Propagation runs on the event-driven maintenance scheduler.
//
//	rollload -workload star -dims 3 -rows 5000 -updates 20000 \
//	         -views 4 -interval 16 -report 1s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/relalg"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	kind := flag.String("workload", "chain", "workload: chain or star")
	n := flag.Int("n", 2, "relations in the chain workload")
	dims := flag.Int("dims", 2, "dimension tables in the star workload")
	rows := flag.Int("rows", 2000, "initial rows per table (fact table for star)")
	updates := flag.Int("updates", 10000, "update transactions to run")
	views := flag.Int("views", 1, "number of identically defined maintained views")
	maint := flag.Int("maint", 4, "scheduler worker-pool size")
	interval := flag.Int64("interval", 16, "propagation interval (commits)")
	adaptive := flag.Int("adaptive", 0, "adaptive target rows per query (0 = fixed interval)")
	indexed := flag.Bool("index", false, "create hash indexes on the join columns")
	batch := flag.Int("batch", 0, "executor batch size in rows (0 = ROLLINGJOIN_BATCH env, then 256)")
	skew := flag.Float64("skew", 0, "zipf exponent for fact-table keys in the star workload (0 = uniform)")
	report := flag.Duration("report", time.Second, "live report period")
	seed := flag.Int64("seed", 1, "workload random seed")
	faults := flag.Int64("faults", 0, "chaos smoke: inject a transient I/O error every Nth view apply")
	soak := flag.Duration("soak", 0, "sustained-ingest endurance mode: run for this duration with folding, spill, and incremental checkpoints, sampling RSS and delta cardinality")
	rssLimit := flag.Int("rss-limit", 0, "soak mode: fail if sampled RSS ever exceeds this many MB (0 = relative growth check only)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rollload: pprof:", err)
			}
		}()
	}
	if *soak > 0 {
		if err := runSoak(*soak, *rssLimit, *seed, *report); err != nil {
			fmt.Fprintln(os.Stderr, "rollload:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*kind, *n, *dims, *rows, *updates, *views, *maint, *interval, *adaptive, *indexed, *batch, *skew, *report, *seed, *faults); err != nil {
		fmt.Fprintln(os.Stderr, "rollload:", err)
		os.Exit(1)
	}
}

// viewInst is one maintained view instance: its own view delta, executor,
// rolling propagator, and applier over the shared workload definition.
type viewInst struct {
	exec     *core.Executor
	dv       *engine.Derived // unregistered image
	dest     *engine.DeltaTable
	rp       *core.RollingPropagator
	applier  *core.Applier
	job      *sched.Job
	applyJob *sched.Job // with -faults: background apply under injected errors
}

func classify(err error) sched.Outcome {
	switch {
	case err == nil:
		return sched.Progress
	case errors.Is(err, core.ErrNoProgress):
		return sched.Idle
	case errors.Is(err, capture.ErrStopped):
		return sched.Halt
	default:
		return sched.Fail
	}
}

func run(kind string, n, dims, rows, updates, views, maint int, interval int64, adaptive int, indexed bool, batch int, skew float64, report time.Duration, seed, faults int64) error {
	var w *workload.Workload
	switch kind {
	case "chain":
		w = workload.Chain(n, rows, rows/10+1)
	case "star":
		w = workload.StarSchemaSkewed(dims, rows, rows/10+1, 20, skew)
	default:
		return fmt.Errorf("unknown workload %q", kind)
	}
	if views < 1 {
		views = 1
	}

	db, err := engine.Open(engine.Config{BatchSize: batch})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := w.Setup(db, rand.New(rand.NewSource(seed))); err != nil {
		return err
	}
	if indexed {
		for _, spec := range w.Tables {
			if _, err := db.CreateIndex(spec.Name, "k"); err != nil {
				return err
			}
		}
	}
	cap := capture.NewLogCapture(db)
	cap.Start()

	schema, err := w.View.Schema(db)
	if err != nil {
		return err
	}
	insts := make([]*viewInst, views)
	for i := range insts {
		name := "Δ" + w.View.Name
		if i > 0 {
			name = fmt.Sprintf("Δ%s#%d", w.View.Name, i)
		}
		dest, err := db.CreateStandaloneDelta(name, schema)
		if err != nil {
			return err
		}
		exec := core.NewExecutor(db, cap, w.View, dest)
		exec.Metrics = core.NewExecMetrics()
		rel, at, err := core.FullRefresh(db, w.View)
		if err != nil {
			return err
		}
		var policy core.IntervalPolicy
		if adaptive > 0 {
			policy = core.AdaptiveInterval(db, w.View, adaptive)
		} else {
			policy = core.FixedInterval(relalg.CSN(interval))
		}
		rp := core.NewRollingPropagator(exec, at, policy)
		dv := engine.NewDerived(dest, rp.HWM)
		if err := dv.SetImage(rel, at); err != nil {
			return err
		}
		insts[i] = &viewInst{exec: exec, dv: dv, dest: dest, rp: rp, applier: core.NewApplier(dv)}
	}

	// One event-driven maintenance scheduler drives every view.
	s := sched.New(maint)
	defer s.Close()
	if faults > 0 {
		// Chaos smoke: every Nth apply fails with a transient I/O error,
		// which must ride the scheduler's retry/backoff path instead of
		// killing the run.
		fault.Set(fault.PointApply, fault.ErrEvery(faults, fault.ErrInjected))
	}
	for i, inst := range insts {
		opts := sched.Options{
			HWM:          inst.rp.HWM,
			Classify:     classify,
			WakeOnNotify: true,
		}
		if faults > 0 {
			inst := inst
			inst.applyJob = s.Register(fmt.Sprintf("apply:%d", i), func() error {
				before := inst.dv.MatTime()
				t, err := inst.applier.RollToHWM()
				if err != nil {
					return err
				}
				if t <= before {
					return core.ErrNoProgress
				}
				return nil
			}, sched.Options{Classify: classify})
			inst.applyJob.Start()
			opts.OnProgress = inst.applyJob.Kick
		}
		inst.job = s.Register(fmt.Sprintf("prop:%d", i), inst.rp.Step, opts)
		inst.job.Start()
	}
	cap.OnProgress(func(csn relalg.CSN) { s.Notify(csn) })

	fmt.Printf("workload=%s views=%d view=%s relations=%d initial-rows=%d updates=%d batch=%d\n\n",
		kind, views, w.View.Name, w.View.N(), rows, updates, db.BatchSize())

	minHWM := func() relalg.CSN {
		h := insts[0].rp.HWM()
		for _, inst := range insts[1:] {
			if v := inst.rp.HWM(); v < h {
				h = v
			}
		}
		return h
	}
	sumStats := func() (fwd, comp, skipped, produced, batches int64) {
		for _, inst := range insts {
			es := inst.exec.Stats()
			fwd += es.ForwardQueries
			comp += es.CompensationQueries
			skipped += es.SkippedEmpty
			produced += es.RowsProduced
			batches += es.BatchesProduced
		}
		return
	}

	driver := workload.NewDriver(db, w, seed+1)
	lat := metrics.NewHistogram()
	allocs := metrics.NewAllocSampler()
	start := time.Now()
	lastReport := start
	var reported, reportedPropRows int64
	var last relalg.CSN
	for i := 0; i < updates; i++ {
		st := time.Now()
		csn, err := driver.Step()
		if err != nil {
			return err
		}
		lat.Observe(time.Since(st))
		last = csn
		if time.Since(lastReport) >= report {
			fwd, comp, skipped, _, _ := sumStats()
			done := driver.Committed()
			since := time.Since(lastReport).Seconds()
			rate := float64(done-reported) / since
			propRows := insts[0].exec.Metrics.Rows.Sum()
			propRate := float64(propRows-reportedPropRows) / since
			hwm := minHWM()
			fmt.Printf("t=%-6s txns=%-7d rate=%7.0f/s  p99=%-9s hwm=%-7d lag=%-6d fwd=%-5d comp=%-5d skipped=%-5d prop=%6.0frows/s q-p99=%s\n",
				time.Since(start).Round(time.Second), done, rate,
				lat.Quantile(0.99).Round(time.Microsecond),
				int64(hwm), int64(last-hwm),
				fwd, comp, skipped,
				propRate, insts[0].exec.Metrics.Latency.Quantile(0.99).Round(time.Microsecond))
			lastReport = time.Now()
			reported = done
			reportedPropRows = propRows
		}
	}
	wall := time.Since(start)

	// Drain event-driven (wait on job progress broadcasts), then stop
	// maintenance, refresh, and verify against recomputation.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, inst := range insts {
		target := last
		inst.job.Demand(target)
		if err := inst.job.Await(ctx, func() bool { return inst.rp.HWM() >= target }); err != nil {
			return err
		}
		if err := inst.job.Stop(); err != nil {
			return err
		}
	}
	for _, inst := range insts {
		if inst.applyJob == nil {
			continue
		}
		inst.applyJob.Kick()
		target := inst.rp.HWM()
		if err := inst.applyJob.Await(ctx, func() bool { return inst.dv.MatTime() >= target }); err != nil {
			return err
		}
		if err := inst.applyJob.Stop(); err != nil {
			return err
		}
	}
	// Verification below recomputes without injection. Reset clears the
	// counters too, so note the trip count first for the summary.
	faultTrips := fault.Trips(fault.PointApply)
	fault.Reset()

	full, csn, err := core.FullRefresh(db, w.View)
	if err != nil {
		return err
	}
	ok := true
	var img *relalg.Relation
	for _, inst := range insts {
		for inst.rp.HWM() < csn {
			if err := inst.rp.Step(); err != nil && !errors.Is(err, core.ErrNoProgress) {
				return err
			}
		}
		if err := inst.applier.RollTo(csn); err != nil {
			return err
		}
		if img, err = inst.dv.Image(); err != nil {
			return err
		}
		if !relalg.Equivalent(img, full) {
			ok = false
		}
	}

	// Reclaim dead row versions now that no snapshot needs them, so the
	// summary shows the retain/collect cycle.
	db.GCVersions()

	fwd, comp, skipped, produced, batches := sumStats()
	st := db.Stats()
	fmt.Printf("\n--- summary ---\n")
	fmt.Printf("updates:              %d in %s (%.0f/s)\n", updates, wall.Round(time.Millisecond), float64(updates)/wall.Seconds())
	fmt.Printf("writer latency:       mean %s  p99 %s  max %s\n",
		lat.Mean().Round(time.Microsecond), lat.Quantile(0.99).Round(time.Microsecond), lat.Max().Round(time.Microsecond))
	fmt.Printf("propagation:          %d forward + %d compensation queries, %d skipped empty (%d views)\n",
		fwd, comp, skipped, views)
	fmt.Printf("query latency:        mean %s  p99 %s  max %s\n",
		insts[0].exec.Metrics.Latency.Mean().Round(time.Microsecond),
		insts[0].exec.Metrics.Latency.Quantile(0.99).Round(time.Microsecond),
		insts[0].exec.Metrics.Latency.Max().Round(time.Microsecond))
	fmt.Printf("delta rows produced:  %d in %d batches (view now %d tuples)\n",
		produced, batches, img.Cardinality())
	ss := s.Stats()
	fmt.Printf("scheduler:            %d wakeups, %d steps, %d notifies, %d parks, %d backoffs (%d workers)\n",
		ss.Wakeups, ss.Steps, ss.Notifies, ss.Parks, ss.Backoffs, ss.Workers)
	if faults > 0 {
		fmt.Printf("faults:               %d transient errors injected at %s (every %d applies), %d backoff retries absorbed them\n",
			faultTrips, fault.PointApply, faults, ss.Backoffs)
	}
	fmt.Printf("engine:               %d rows scanned, %d joined, %d index probes\n",
		st.RowsScanned, st.RowsJoined, st.IndexProbes)
	if st.BatchesProduced > 0 {
		rowsPerBatch := float64(st.BatchRows) / float64(st.BatchesProduced)
		keepPct := 100.0
		if st.FilterRowsIn > 0 {
			keepPct = 100 * float64(st.FilterRowsKept) / float64(st.FilterRowsIn)
		}
		fmt.Printf("batch pipeline:       %d batches (%.1f rows/batch, cap %d), filters kept %d/%d rows (%.0f%%), arena ~%d KiB\n",
			st.BatchesProduced, rowsPerBatch, db.BatchSize(),
			st.FilterRowsKept, st.FilterRowsIn, keepPct, st.ArenaBytes/1024)
	}
	a := allocs.Sample()
	fmt.Printf("allocations:          %d objects, %d MiB since driver start\n",
		a.Mallocs, a.Bytes/(1<<20))
	fmt.Printf("locks:                %d waits, %s total wait, %d deadlocks\n",
		st.Txn.LockWaits, st.Txn.LockWaitTime.Round(time.Microsecond), st.Txn.Deadlocks)
	fmt.Printf("snapshots:            %d opened, %d publish-barrier stalls, %d dead versions retained, %d collected\n",
		st.SnapshotsOpened, st.PublishStalls, st.VersionsRetained, st.VersionsCollected)
	if ok {
		fmt.Printf("verification:         %d rolled view(s) match full recomputation ✓\n", views)
		return nil
	}
	return fmt.Errorf("verification FAILED: rolled view diverged from recomputation")
}
