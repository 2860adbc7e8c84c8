package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	rollingjoin "repro"
	"repro/internal/relalg"
)

// runSoak is the sustained-ingest endurance mode: it drives a steady
// insert/delete stream with folding, cold spill, and periodic incremental
// checkpoints enabled, samples RSS and total delta-table cardinality, and
// fails if either grows without bound or any view diverges from
// recomputation at the end. A short run doubles as the CI smoke arm:
//
//	rollload -soak 30s -rss-limit 512
func runSoak(dur time.Duration, rssLimitMB int, seed int64, report time.Duration) error {
	spillRoot, err := os.MkdirTemp("", "rollload-spill-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillRoot)
	chainDir, err := os.MkdirTemp("", "rollload-chain-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(chainDir)

	db, err := rollingjoin.Open(rollingjoin.Options{
		FoldDeltas: true,
		SpillDir:   spillRoot,
		SpillAfter: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	if err := soakCatalog(db); err != nil {
		return err
	}
	items := []struct {
		name  string
		price int64
	}{{"ball", 5}, {"bat", 20}, {"glove", 12}, {"cap", 7}}
	regions := []string{"east", "west", "north", "south"}
	if _, err := db.Update(func(tx *rollingjoin.Tx) error {
		for _, it := range items {
			if err := tx.Insert("items", rollingjoin.Str(it.name), rollingjoin.Int(it.price)); err != nil {
				return err
			}
		}
		for cust := int64(0); cust < 16; cust++ {
			if err := tx.Insert("regions", rollingjoin.Int(cust), rollingjoin.Str(regions[cust%4])); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	pricesSpec := rollingjoin.ViewSpec{
		Name:   "order_prices",
		Tables: []string{"orders", "items"},
		Joins:  []rollingjoin.Join{{LeftTable: "orders", LeftColumn: "item", RightTable: "items", RightColumn: "item"}},
	}
	enrichedSpec := rollingjoin.ViewSpec{
		Name:   "orders_enriched",
		Tables: []string{"orders", "regions"},
		Joins:  []rollingjoin.Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	}
	auto := rollingjoin.Maintain{Interval: 8, AutoRefresh: true}
	prices, err := db.DefineView(pricesSpec, auto)
	if err != nil {
		return err
	}
	enriched, err := db.DefineView(enrichedSpec, auto)
	if err != nil {
		return err
	}
	// Cascade: a maintained aggregate over the enriched view exercises the
	// downstream-HWM leg of the fold horizon.
	rollup, err := db.DefineAggregate(rollingjoin.AggSpec{
		Name:    "region_counts",
		Source:  "orders_enriched",
		GroupBy: []string{"region"},
		Aggs:    []rollingjoin.Agg{{Func: rollingjoin.AggCount}},
	}, auto)
	if err != nil {
		return err
	}
	// An archival copy on a slow manual cadence: between its refreshes the
	// image goes idle, spills cold, and is paged back in by the next fold
	// or refresh — a stale subscriber that still releases the horizon.
	archive, err := db.DefineView(rollingjoin.ViewSpec{
		Name:   "order_prices_archive",
		Tables: pricesSpec.Tables,
		Joins:  pricesSpec.Joins,
	}, rollingjoin.Maintain{Manual: true})
	if err != nil {
		return err
	}

	fmt.Printf("soak duration=%s rss-limit=%dMB fold=on spill=%s checkpoints=%s\n\n",
		dur, rssLimitMB, spillRoot, chainDir)

	const keepLive = 2000 // steady-state live orders
	rng := rand.New(rand.NewSource(seed))
	var (
		nextID                   int64
		commits                  int64
		rssSamples, deltaSamples []float64
		ckptLat                  []time.Duration
		last                     rollingjoin.CSN
		tick                     int
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	lastReport := start
	for time.Now().Before(deadline) {
		id := nextID
		nextID++
		it := items[rng.Intn(len(items))].name
		cust := rng.Int63n(16)
		csn, err := db.Update(func(tx *rollingjoin.Tx) error {
			if err := tx.Insert("orders", rollingjoin.Int(id), rollingjoin.Str(it), rollingjoin.Int(cust)); err != nil {
				return err
			}
			if id >= keepLive {
				// Slide the live window so base cardinality stays flat.
				if _, err := tx.Delete("orders", "id", rollingjoin.EQ, rollingjoin.Int(id-keepLive), 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		last = csn
		commits++
		if time.Since(lastReport) >= report {
			lastReport = time.Now()
			tick++
			// One incremental checkpoint link per tick: under sustained
			// ingest the latency must track the change window, not the
			// accumulated database.
			st := time.Now()
			if err := db.CheckpointIncremental(chainDir); err != nil {
				return fmt.Errorf("incremental checkpoint at commit %d: %w", commits, err)
			}
			ckptLat = append(ckptLat, time.Since(st))
			// The archive subscriber advances on a slow cadence; its stale
			// horizon pins folding only between these refreshes.
			if tick%3 == 0 {
				if err := archive.CatchUp(last); err != nil {
					return err
				}
				if _, err := archive.Refresh(); err != nil {
					return err
				}
			}
			rss := rssMB()
			deltas := totalDeltaRows(db)
			rssSamples = append(rssSamples, rss)
			deltaSamples = append(deltaSamples, float64(deltas))
			es := db.Engine().Stats()
			fmt.Printf("t=%-6s txns=%-8d rss=%5.0fMB delta-rows=%-8d folded=%-8d compactions=%-5d spilled=%6dKB cold-loads=%-3d ckpts=%d ckpt-p50=%s\n",
				time.Since(start).Round(time.Second), commits, rss, deltas,
				es.FoldedRows, es.Compactions, es.SpilledBytes/1024, es.ColdLoads,
				len(ckptLat), medianDuration(ckptLat).Round(time.Microsecond))
		}
	}
	wall := time.Since(start)

	// Settle: drain the cascade bottom-up to the last commit, then refresh.
	if err := prices.CatchUp(last); err != nil {
		return err
	}
	if err := enriched.CatchUp(last); err != nil {
		return err
	}
	if err := rollup.CatchUp(last); err != nil {
		return err
	}
	if _, err := prices.Refresh(); err != nil {
		return err
	}
	if _, err := enriched.Refresh(); err != nil {
		return err
	}
	if _, err := rollup.Refresh(); err != nil {
		return err
	}
	if err := archive.CatchUp(last); err != nil {
		return err
	}
	if _, err := archive.Refresh(); err != nil {
		return err
	}

	es := db.Engine().Stats()
	fmt.Printf("\n--- soak summary ---\n")
	fmt.Printf("ingest:        %d commits in %s (%.0f/s), %d live orders\n",
		commits, wall.Round(time.Second), float64(commits)/wall.Seconds(), min64(nextID, keepLive))
	fmt.Printf("tiering:       %d compactions folded %d rows, %d KB spilled, %d cold loads\n",
		es.Compactions, es.FoldedRows, es.SpilledBytes/1024, es.ColdLoads)
	fmt.Printf("residency:     image %d KB\n", es.ImageResidentBytes/1024)
	if len(ckptLat) > 0 {
		var sum, max time.Duration
		for _, d := range ckptLat {
			sum += d
			if d > max {
				max = d
			}
		}
		fmt.Printf("checkpoints:   %d incremental links, mean %s, max %s\n",
			len(ckptLat), (sum / time.Duration(len(ckptLat))).Round(time.Microsecond), max.Round(time.Microsecond))
	}

	// Correctness: every maintained view equals recomputation.
	if err := verifyRows("order_prices", prices.Rows(), db, pricesSpec); err != nil {
		return err
	}
	if err := verifyRows("orders_enriched", enriched.Rows(), db, enrichedSpec); err != nil {
		return err
	}
	if err := verifyRollup(rollup, db, enrichedSpec); err != nil {
		return err
	}
	if err := verifyRows("order_prices_archive", archive.Rows(), db, pricesSpec); err != nil {
		return err
	}
	// A direct derived read pages the archive image back in if the final
	// quiet period spilled it.
	dv, err := db.Engine().Derived("order_prices_archive")
	if err != nil {
		return err
	}
	if _, err := dv.ScanAsOf(relalg.NullTS, nil); err != nil {
		return fmt.Errorf("cold archive read: %w", err)
	}
	after := db.Engine().Stats()
	fmt.Printf("verification:  4 maintained views match recomputation (%d cold loads) ✓\n", after.ColdLoads)

	// Bounded growth: the run fails if RSS or delta cardinality keeps
	// climbing instead of plateauing under fold/spill pressure.
	if err := boundedGrowth("rss", rssSamples, 64); err != nil {
		return err
	}
	if err := boundedGrowth("delta-rows", deltaSamples, float64(keepLive)); err != nil {
		return err
	}
	if rssLimitMB > 0 {
		for _, s := range rssSamples {
			if s > float64(rssLimitMB) {
				return fmt.Errorf("rss %0.fMB exceeded -rss-limit %dMB", s, rssLimitMB)
			}
		}
	}
	fmt.Printf("growth:        rss and delta cardinality bounded over %d samples ✓\n", len(rssSamples))
	return nil
}

func soakCatalog(db *rollingjoin.DB) error {
	if err := db.CreateTable("orders",
		rollingjoin.Col("id", rollingjoin.TypeInt),
		rollingjoin.Col("item", rollingjoin.TypeString),
		rollingjoin.Col("cust", rollingjoin.TypeInt),
	); err != nil {
		return err
	}
	if err := db.CreateTable("items",
		rollingjoin.Col("item", rollingjoin.TypeString),
		rollingjoin.Col("price", rollingjoin.TypeInt),
	); err != nil {
		return err
	}
	return db.CreateTable("regions",
		rollingjoin.Col("cust", rollingjoin.TypeInt),
		rollingjoin.Col("region", rollingjoin.TypeString),
	)
}

// rssMB reads the process resident set from /proc/self/status, falling
// back to the Go heap when unavailable (non-Linux).
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmRSS:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// totalDeltaRows sums resident delta cardinality across every relation,
// base and derived.
func totalDeltaRows(db *rollingjoin.DB) int64 {
	var total int64
	for _, name := range db.Engine().TableNames() {
		if d, err := db.Engine().Delta(name); err == nil {
			total += int64(d.Len())
		}
	}
	return total
}

// boundedGrowth rejects a sample series whose steady-state (final third)
// maximum exceeds twice the warmup (first third) maximum plus a small
// absolute allowance for noise. Short runs with too few samples pass
// trivially — the check needs a warmup and a steady state to compare.
func boundedGrowth(name string, samples []float64, allowance float64) error {
	if len(samples) < 9 {
		return nil
	}
	third := len(samples) / 3
	var firstMax, lastMax float64
	for _, s := range samples[:third] {
		if s > firstMax {
			firstMax = s
		}
	}
	for _, s := range samples[len(samples)-third:] {
		if s > lastMax {
			lastMax = s
		}
	}
	if lastMax > 2*firstMax+allowance {
		return fmt.Errorf("%s grew without bound: warmup max %.0f, steady-state max %.0f", name, firstMax, lastMax)
	}
	return nil
}

// verifyRows compares a maintained view's rows against an ad-hoc
// recomputation of the same spec, as multisets.
func verifyRows(name string, got []rollingjoin.Tuple, db *rollingjoin.DB, spec rollingjoin.ViewSpec) error {
	oracle := spec
	oracle.Name = name + "_oracle"
	full, err := db.Query(oracle)
	if err != nil {
		return err
	}
	g, w := renderRows(got), renderRows(full.Rows)
	if len(g) != len(w) {
		return fmt.Errorf("%s diverged: %d rows vs %d recomputed", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("%s diverged from recomputation at row %d: %s vs %s", name, i, g[i], w[i])
		}
	}
	return nil
}

// verifyRollup recomputes the per-region count from the enriched join and
// compares it with the maintained aggregate.
func verifyRollup(rollup *rollingjoin.AggregateView, db *rollingjoin.DB, enrichedSpec rollingjoin.ViewSpec) error {
	oracle := enrichedSpec
	oracle.Name = "rollup_oracle"
	full, err := db.Query(oracle)
	if err != nil {
		return err
	}
	want := make(map[string]int64)
	for _, row := range full.Rows {
		// enriched row layout: orders(id,item,cust) ++ regions(cust,region)
		want[row[4].AsString()]++
	}
	got := make(map[string]int64)
	for _, row := range rollup.Rows() {
		got[row[0].AsString()] = row[1].AsInt()
	}
	if len(got) != len(want) {
		return fmt.Errorf("region_counts diverged: %d groups vs %d recomputed", len(got), len(want))
	}
	for region, n := range want {
		if got[region] != n {
			return fmt.Errorf("region_counts[%s] = %d, recomputation says %d", region, got[region], n)
		}
	}
	return nil
}

func renderRows(rows []rollingjoin.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
