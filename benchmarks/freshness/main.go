// Command freshness is the repository's benchmark: it measures how long
// after a commit its effect is visible in a maintained view at a fixed
// write rate, the sustained commit rate and the CPU cost per commit, on
// four socket-driven workloads, and in a separate traced run where that
// time goes layer by layer. See README.md.
//
// One binary, two roles. The default role is the load generator, which
// re-executes itself with -role node to spawn the database processes it
// drives over TCP.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
)

// metric describes one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEndMetrics are what a user of the system sees; the same names on
// every workload. BENCHMARK.json repeats them (a test keeps the two equal).
var endToEndMetrics = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"sustained_commits_per_s", "1/s", "higher", 0.25},
	{"fresh_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_commit", "ms", "lower", 0.25},
}

// perLayerMetrics come from the traced run only and have no bound.
var perLayerMetrics = []metric{
	{Name: "wal.append_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.syncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "repl.commit_self_ms", Unit: "ms", Better: "lower"},
	{Name: "capture.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.propagate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.fold_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.ship_ms", Unit: "ms", Better: "lower"},
	{Name: "follower.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "feed.deliver_ms", Unit: "ms", Better: "lower"},
	{Name: "fwd_queries", Unit: "count", Better: "lower"},
	{Name: "comp_queries", Unit: "count", Better: "lower"},
	{Name: "skipped_empty", Unit: "count", Better: "higher"},
	{Name: "index_probes", Unit: "count", Better: "lower"},
	{Name: "rows_examined_per_delta_row", Unit: "rows", Better: "lower"},
	{Name: "heavy_keys", Unit: "count", Better: "lower"},
	{Name: "rows_applied", Unit: "rows", Better: "lower"},
	{Name: "folded_rows", Unit: "rows", Better: "higher"},
	{Name: "materialize_rows", Unit: "rows", Better: "lower"},
	{Name: "ship_bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
}

func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":                 r.SetupS,
		"sustained_commits_per_s": r.SustainedPerS,
		"fresh_p50_ms":            r.P50.Median,
		"cpu_ms_per_commit":       r.CPUMsPerCmt,
	}
}

// resultLine is the last line of standard output: the benchmark contract's
// machine-readable result.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) resultLine() resultLine {
	defs, vals := endToEndMetrics, r.endToEnd()
	if r.Traced {
		defs, vals = perLayerMetrics, r.Layers
	}
	out := resultLine{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		out.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

func (r *report) print() {
	fmt.Printf("== %s  seed=%d  traced=%v\n", r.Workload, r.Seed, r.Traced)
	fmt.Printf("  %-26s %10.3f s    (median of %d set-ups: %.3f)\n", "setup_s", r.SetupS, len(r.SetupRuns), r.SetupRuns)
	fmt.Printf("  %-26s %10.1f 1/s  (closed loop, median burst incl. drain, min %.1f max %.1f, %d commits in all)\n",
		"sustained_commits_per_s", r.SustainedPerS, r.SustainedMin, r.SustainedMax, r.Commits)
	lat := func(name string, q float64, s windowStat) {
		note := ""
		if !s.Supported {
			note = fmt.Sprintf("  [fewer than %d samples beyond p%.0f in some window]", minBeyond, q*100)
		}
		fmt.Printf("  %-26s %10.3f ms   (median of per-window values, min %.3f max %.3f, >=%d samples/window)%s\n",
			name, s.Median, s.Min, s.Max, s.Samples, note)
	}
	lat("fresh_p50_ms", 0.50, r.P50)
	lat("fresh_p99_ms", 0.99, r.P99)
	fmt.Printf("  %-26s %10v      (fresh_p99_ms <= %.0f ms)\n", "slo_met", r.P99.Median <= sloP99Ms, sloP99Ms)
	fmt.Printf("  %-26s %10.4f ms   (user+sys of all nodes, median freshness window)\n", "cpu_ms_per_commit", r.CPUMsPerCmt)
	fmt.Printf("  %-26s %10.6f      (%d failed of %d attempted)\n", "failed_share", r.failedShare(), r.Failed, r.Attempted)
	fmt.Printf("  %-26s %10.3f ms   (p99 %.3f ms)\n", "generator_lateness_max", r.Late.MaxMs, r.Late.P99Ms)
	fmt.Printf("  %-26s %10.1f MiB\n", "node_peak_rss", r.PeakRSSMiB)
	fmt.Printf("  %-26s %10.1f B\n", "wal_bytes_per_commit", r.WALBytesPerC)
	if r.Reads > 0 {
		fmt.Printf("  %-26s %10d      (%.0f rows each)\n", "reads", r.Reads, r.RowsPerRead)
	}
	if !r.Traced {
		return
	}
	fmt.Println("  -- per layer (traced run, one load connection, manual maintenance driver)")
	for _, m := range perLayerMetrics {
		fmt.Printf("  %-28s %14.4f %s\n", m.Name, r.Layers[m.Name], m.Unit)
	}
	fmt.Println("  -- share of the commit-to-visible path, per commit")
	for _, s := range r.Shares {
		fmt.Printf("  %-28s %10.4f ms  %5.1f %%\n", s.Layer, s.Ms, 100*s.Share)
	}
}

func main() {
	var (
		role     = flag.String("role", "load", "load (the generator, default) or node")
		name     = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds  = flag.Int("seconds", standardSeconds, "measured seconds of one run (warm-up, capacity and freshness phases)")
		trace    = flag.Int("trace", 0, "1: traced run, reports per-layer metrics in place of the end-to-end ones")
		short    = flag.Bool("short", false, "smoke mode: one 2 s window per workload, no claim on the numbers")
		selfchk  = flag.Bool("selfcheck", false, "run two sets of three untraced runs per workload and compare their medians with the recorded bounds")
		dir      = flag.String("dir", "", "scratch directory for WAL files (default: a fresh temporary directory)")
		out      = flag.String("out", traceOutDir, "directory for trace-<workload>.json")
		walPath  = flag.String("wal", "", "node: WAL file path")
		leaderAt = flag.String("leader", "", "node: leader URL; makes the node a follower")
	)
	flag.Parse()
	traceOutDir = *out

	if *role == "node" {
		err := runNode(nodeConfig{Workload: *name, WAL: *walPath, Leader: *leaderAt, Trace: *trace == 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "freshness node:", err)
			os.Exit(1)
		}
		return
	}

	if err := runLoad(*name, *seed, *seconds, *trace == 1, *short, *selfchk, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "freshness:", err)
		os.Exit(1)
	}
}

func runLoad(name string, seed int64, seconds int, trace, short, selfcheck bool, dir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "freshness-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Children are reaped on every exit path: normally by tearDown, on a
	// signal here, and on a crash of this process by their stdin closing.
	ctx := context.Background()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	var selected []*workload
	if name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}

	// runSet runs every selected workload runs times, with consecutive
	// seeds, and returns per workload the median of each end-to-end metric.
	runSet := func(runs int) ([]map[string]float64, error) {
		var medians []map[string]float64
		for _, w := range selected {
			values := map[string][]float64{}
			for i := 0; i < runs; i++ {
				rep, err := runWorkload(ctx, w, seed+int64(i), seconds, trace, short, dir)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.Name, err)
				}
				rep.print()
				line, err := json.Marshal(rep.resultLine())
				if err != nil {
					return nil, err
				}
				fmt.Println(string(line))
				for name, v := range rep.endToEnd() {
					values[name] = append(values[name], v)
				}
			}
			med := map[string]float64{}
			for name, vs := range values {
				med[name] = median(vs)
			}
			medians = append(medians, med)
		}
		return medians, nil
	}

	if !selfcheck {
		_, err := runSet(1)
		return err
	}
	first, err := runSet(selfcheckRuns)
	if err != nil {
		return err
	}
	second, err := runSet(selfcheckRuns)
	if err != nil {
		return err
	}
	return compare(selected, first, second)
}

// selfcheckRuns is how many runs per workload make one set of a selfcheck;
// a set's value is their median, as in the driver's own comparison of sets.
const selfcheckRuns = 3

// compare prints, per metric and workload, the two medians of a selfcheck,
// their relative difference and the recorded bound, and fails when a pair
// disagrees by more than its bound.
func compare(selected []*workload, first, second []map[string]float64) error {
	fmt.Printf("== selfcheck: two sets of %d runs per workload of the same build, medians\n", selfcheckRuns)
	fmt.Printf("  %-14s %-26s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	bad := 0
	for i, w := range selected {
		a, b := first[i], second[i]
		for _, m := range endToEndMetrics {
			diff := math.Abs(a[m.Name]-b[m.Name]) / math.Min(a[m.Name], b[m.Name])
			mark := ""
			if diff > m.Bound {
				mark = "  BEYOND BOUND"
				bad++
			}
			fmt.Printf("  %-14s %-26s %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				w.Name, m.Name, a[m.Name], b[m.Name], 100*diff, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric×workload pairs disagree beyond their bound", bad)
	}
	return nil
}
