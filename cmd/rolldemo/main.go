// Command rolldemo walks through the rolling propagation algorithm on a
// two-table join, printing every propagation query as it executes along
// with the per-relation progress and the high-water mark — a textual
// rendition of the paper's Figure 9.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/workload"
)

func main() {
	updates := flag.Int("updates", 30, "update transactions to generate")
	d1 := flag.Int64("d1", 4, "propagation interval for R1 (commits)")
	d2 := flag.Int64("d2", 12, "propagation interval for R2 (commits)")
	flag.Parse()

	if err := run(*updates, relalg.CSN(*d1), relalg.CSN(*d2)); err != nil {
		fmt.Fprintln(os.Stderr, "rolldemo:", err)
		os.Exit(1)
	}
}

func run(updates int, d1, d2 relalg.CSN) error {
	env, err := bench.NewEnv(workload.Chain(2, 20, 5), 1)
	if err != nil {
		return err
	}
	defer env.Close()
	env.Exec.SkipEmptyWindows = false

	fmt.Printf("View: V = r1 ⋈ r2 on k;   intervals δ = [%d, %d] commits\n", d1, d2)
	fmt.Printf("Generating %d single-row update transactions...\n\n", updates)
	driver := workload.NewDriver(env.DB, env.W, 2)
	last, err := driver.Run(updates)
	if err != nil {
		return err
	}
	if err := env.Cap.WaitProgress(last); err != nil {
		return err
	}

	env.Exec.OnQuery = func(e core.TraceEntry) {
		indent := ""
		for i := 0; i < e.Depth; i++ {
			indent += "    "
		}
		fmt.Printf("  %s[%s] %-42s exec t=%-4d rows=%d\n", indent, e.Kind, e.Query, int64(e.Exec), e.Rows)
	}

	rp := core.NewRollingPropagator(env.Exec, 0, core.PerRelationIntervals(d1, d2))
	step := 0
	for rp.HWM() < last {
		step++
		fmt.Printf("step %d:\n", step)
		if err := rp.Step(); err != nil {
			if errors.Is(err, core.ErrNoProgress) {
				continue
			}
			return err
		}
		tf := rp.TFwd()
		fmt.Printf("  -> tfwd = [%d, %d], high-water mark = %d\n\n", int64(tf[0]), int64(tf[1]), int64(rp.HWM()))
	}

	// Roll the materialized view to a random intermediate point, then to
	// the high-water mark, demonstrating point-in-time refresh.
	dv := engine.NewDerived(env.Dest, rp.HWM)
	applier := core.NewApplier(dv)
	mid := relalg.CSN(rand.New(rand.NewSource(3)).Int63n(int64(last)) + 1)
	if err := applier.RollTo(mid); err != nil {
		return err
	}
	img, err := dv.Image()
	if err != nil {
		return err
	}
	fmt.Printf("point-in-time refresh to t=%d: view has %d tuples\n", int64(mid), img.Cardinality())
	if _, err := applier.RollToHWM(); err != nil {
		return err
	}
	if img, err = dv.Image(); err != nil {
		return err
	}
	fmt.Printf("refresh to high-water mark t=%d: view has %d tuples\n", int64(rp.HWM()), img.Cardinality())

	full, _, err := core.FullRefresh(env.DB, env.W.View)
	if err != nil {
		return err
	}
	if relalg.Equivalent(img, full) {
		fmt.Println("rolled view matches full recomputation ✓")
	} else {
		return errors.New("rolled view DIVERGED from recomputation")
	}
	st := env.Exec.Stats()
	fmt.Printf("\ntotals: %d forward + %d compensation queries, %d delta rows\n",
		st.ForwardQueries, st.CompensationQueries, st.RowsProduced)
	return nil
}
