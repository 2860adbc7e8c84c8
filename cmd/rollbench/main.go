// Command rollbench runs the experiment suite of EXPERIMENTS.md and prints
// the paper-style result tables.
//
// Usage:
//
//	rollbench [-quick] [-run F4,E1,...] [-json BENCH_rollbench.json]
//
// Without -run, every experiment executes. Each experiment self-verifies
// (results are checked against recomputation oracles) and the command exits
// non-zero on any failure. Alongside the text tables, a machine-readable
// summary — per-experiment wall time, engine counters (rows scanned/joined,
// query and index-probe counts), and the A/B experiments' per-arm records —
// is written to the -json path ("" disables it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

type experiment struct {
	id   string
	desc string
	run  func(bench.Scale) (fmt.Stringer, error)
}

// experimentResult is one experiment's machine-readable record.
type experimentResult struct {
	ID          string `json:"id"`
	Desc        string `json:"desc"`
	OK          bool   `json:"ok"`
	Ns          int64  `json:"ns"`
	RowsScanned int64  `json:"rows_scanned"`
	RowsJoined  int64  `json:"rows_joined"`
	QueriesRun  int64  `json:"queries_run"`
	IndexProbes int64  `json:"index_probes"`
}

// report is the top-level BENCH_rollbench.json document.
type report struct {
	Quick       bool                   `json:"quick"`
	Experiments []experimentResult     `json:"experiments"`
	CascadeAB   []bench.CascadeABEntry `json:"cascade_ab,omitempty"`
	CompactAB   []bench.CompactABEntry `json:"compact_ab,omitempty"`
	Failed      int                    `json:"failed"`
}

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	jsonPath := flag.String("json", "BENCH_rollbench.json", "machine-readable output path (empty to disable)")
	flag.Parse()
	scale := bench.Scale{Quick: *quick}

	var cascadeEntries []bench.CascadeABEntry
	var compactEntries []bench.CompactABEntry
	experiments := []experiment{
		{"F4", "ComputeDelta query structure (Figure 4 / Equation 3)",
			func(bench.Scale) (fmt.Stringer, error) { return bench.F4() }},
		{"F7", "region coverage of ComputeDelta (Figure 7)",
			func(bench.Scale) (fmt.Stringer, error) { return bench.F7() }},
		{"F8", "Propagate iteration schedule (Figure 8)",
			func(bench.Scale) (fmt.Stringer, error) { return bench.F8() }},
		{"F9", "RollingPropagate schedule with per-relation intervals (Figure 9)",
			func(bench.Scale) (fmt.Stringer, error) { return bench.F9() }},
		{"E1", "incremental vs full refresh",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E1(s) }},
		{"E2", "writer contention vs propagation interval",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E2(s) }},
		{"E3", "asynchronous deferral of propagation work",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E3(s) }},
		{"E4", "point-in-time refresh cost",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E4(s) }},
		{"E5", "query budget: Eq.1 vs Eq.2 vs asynchronous",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E5(s) }},
		{"E6", "star schema: per-relation intervals",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E6(s) }},
		{"E7", "capture architectures: log vs trigger",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.E7(s) }},
		{"A1", "ablation: index nested-loop vs full-scan propagation",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.A1(s) }},
		{"A2", "ablation: fixed vs adaptive propagation intervals",
			func(s bench.Scale) (fmt.Stringer, error) { return bench.A2(s) }},
		{"CASCADE", "3-level cascade refresh vs full recomputation",
			func(s bench.Scale) (fmt.Stringer, error) {
				tbl, entries, err := bench.CascadeAB(s)
				cascadeEntries = entries
				return tbl, err
			}},
		{"COMPACT", "storage tiering: fold + incremental checkpoint vs unbounded",
			func(s bench.Scale) (fmt.Stringer, error) {
				tbl, entries, err := bench.CompactAB(s)
				compactEntries = entries
				return tbl, err
			}},
	}

	selected := map[string]bool{}
	if *run != "" {
		known := map[string]bool{}
		for _, e := range experiments {
			known[e.id] = true
		}
		for _, id := range strings.Split(*run, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !known[id] {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have F4 F7 F8 F9 E1–E7 A1 A2 CASCADE COMPACT)\n", id)
				os.Exit(2)
			}
			selected[id] = true
		}
	}

	rep := report{Quick: *quick}
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.id, e.desc)
		bench.ResetCounters()
		start := time.Now()
		tbl, err := e.run(scale)
		elapsed := time.Since(start)
		if tbl != nil {
			fmt.Println(tbl.String())
		}
		c := bench.Counters()
		rep.Experiments = append(rep.Experiments, experimentResult{
			ID:          e.id,
			Desc:        e.desc,
			OK:          err == nil,
			Ns:          elapsed.Nanoseconds(),
			RowsScanned: c.RowsScanned,
			RowsJoined:  c.RowsJoined,
			QueriesRun:  c.QueriesRun,
			IndexProbes: c.IndexProbes,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			rep.Failed++
		} else {
			fmt.Printf("(%s verified in %s)\n\n", e.id, elapsed.Round(time.Millisecond))
		}
	}
	rep.CascadeAB = cascadeEntries
	rep.CompactAB = compactEntries

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			buf = append(buf, '\n')
			err = os.WriteFile(*jsonPath, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			rep.Failed++
		} else {
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", rep.Failed)
		os.Exit(1)
	}
}
