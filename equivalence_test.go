package rollingjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// netDelta is a view's timed delta netted per (CSN, row): the count of
// every row summed within each commit, zero entries dropped. Def. 4.2 fixes
// it from the base history alone, whatever the propagation schedule.
type netDelta map[string]int64

func collectNetDelta(t *testing.T, v *View, lo, hi CSN) netDelta {
	t.Helper()
	out := make(netDelta)
	if err := v.EachDelta(lo, hi, func(ts CSN, count int64, row Tuple) error {
		out[fmt.Sprintf("%d|%v", ts, row)] += count
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for k, n := range out {
		if n == 0 {
			delete(out, k)
		}
	}
	return out
}

// diffNetDelta describes the first few (CSN, row) entries on which two
// netted deltas disagree, or returns "" when they are equal.
func diffNetDelta(a, b netDelta) string {
	var diffs []string
	for k, n := range a {
		if b[k] != n {
			diffs = append(diffs, fmt.Sprintf("%s: %d vs %d", k, n, b[k]))
		}
	}
	for k, n := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: 0 vs %d", k, n))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 5 {
		diffs = append(diffs[:5], fmt.Sprintf("... %d more", len(diffs)-5))
	}
	return fmt.Sprint(diffs)
}

// TestEquivalentConfigurations feeds one seeded random history of inserts,
// deletes, replaces and multi-table transactions over three indexed tables
// to relations the paper proves equal, defined side by side in one DB, and
// compares their timed deltas per (CSN, row):
//   - a cascade (A ⋈ B, then ⋈ C) against its flattened view;
//   - Fig. 5 stepwise propagation against Fig. 10 rolling propagation with
//     random per-relation intervals;
//   - stepwise against rolling at interval 1 with every empty-window query
//     kept.
//
// Propagation steps of random views interleave with the commits, so the
// relations cut the history into different windows. A wrong timestamp
// inside a window would net out of a view-equals-recomputation check at
// the HWM; here it shows as a per-CSN mismatch.
func TestEquivalentConfigurations(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			equivalentConfigurations(t, seed)
		})
	}
}

func equivalentConfigurations(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, tbl := range []string{"A", "B", "C"} {
		if err := db.CreateTable(tbl, Col("id", TypeInt), Col("k", TypeInt)); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex(tbl, "k"); err != nil {
			t.Fatal(err)
		}
	}

	const keys = 4
	live := map[string][]int64{}
	nextID := int64(0)
	insert := func(tx *Tx, tbl string) error {
		nextID++
		live[tbl] = append(live[tbl], nextID)
		return tx.Insert(tbl, Int(nextID), Int(rng.Int63n(keys)))
	}
	deleteOne := func(tx *Tx, tbl string) error {
		ids := live[tbl]
		if len(ids) == 0 {
			return insert(tx, tbl)
		}
		i := rng.Intn(len(ids))
		id := ids[i]
		live[tbl] = append(ids[:i], ids[i+1:]...)
		n, err := tx.Delete(tbl, "id", EQ, Int(id), 1)
		if err == nil && n != 1 {
			err = fmt.Errorf("delete %s id %d removed %d rows", tbl, id, n)
		}
		return err
	}
	tables := []string{"A", "B", "C"}
	pick := func() string { return tables[rng.Intn(len(tables))] }

	// A few rows before the views exist, so the initial materialization
	// is not empty.
	if _, err := db.Update(func(tx *Tx) error {
		for i := 0; i < 6; i++ {
			if err := insert(tx, pick()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	abc := []string{"A", "B", "C"}
	joinABC := []Join{{"A", "k", "B", "k"}, {"B", "k", "C", "k"}}
	outABC := []OutCol{{"A", "id"}, {"B", "id"}, {"C", "id"}}
	intervals := []CSN{CSN(1 + rng.Intn(6)), CSN(1 + rng.Intn(6)), CSN(1 + rng.Intn(6))}
	define := func(spec ViewSpec, opt Maintain) *View {
		t.Helper()
		opt.Manual = true
		v, err := db.DefineView(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	flatSpec := func(name string) ViewSpec {
		return ViewSpec{Name: name, Tables: abc, Joins: joinABC, Output: outABC}
	}
	ab := define(ViewSpec{
		Name:   "ab",
		Tables: []string{"A", "B"},
		Joins:  []Join{{"A", "k", "B", "k"}},
		Output: []OutCol{{"A", "id"}, {"B", "id"}, {"B", "k"}},
	}, Maintain{Interval: CSN(1 + rng.Intn(4))})
	// ab's output columns are A.id, B.id and B.k; the r-prefix naming
	// of a concatenated schema makes them "id", "r2_id" and "r2_k".
	cascade := define(ViewSpec{
		Name:   "cascade",
		Tables: []string{"ab", "C"},
		Joins:  []Join{{"ab", "r2_k", "C", "k"}},
		Output: []OutCol{{"ab", "id"}, {"ab", "r2_id"}, {"C", "id"}},
	}, Maintain{Interval: CSN(1 + rng.Intn(4))})
	views := map[string]*View{
		"ab":       ab,
		"cascade":  cascade,
		"flat":     define(flatSpec("flat"), Maintain{Algorithm: AlgorithmStepwise, Interval: CSN(1 + rng.Intn(4))}),
		"rolling":  define(flatSpec("rolling"), Maintain{Intervals: intervals}),
		"stepwise": define(flatSpec("stepwise"), Maintain{Algorithm: AlgorithmStepwise, Interval: CSN(1 + rng.Intn(6))}),
		"keep":     define(flatSpec("keep"), Maintain{Interval: 1, KeepEmptyWindowQueries: true}),
	}
	names := make([]string, 0, len(views))
	for n := range views {
		names = append(names, n)
	}
	sort.Strings(names)
	// Only client commits mint CSNs, so defining the cascade (which
	// catches ab up) leaves every view starting at the same CSN.
	start := ab.MatTime()
	for _, n := range names {
		if got := views[n].MatTime(); got != start {
			t.Fatalf("view %s starts at CSN %d, ab at %d", n, got, start)
		}
	}

	for c := 0; c < 200; c++ {
		if _, err := db.Update(func(tx *Tx) error {
			switch r := rng.Intn(10); {
			case r < 4: // insert
				return insert(tx, pick())
			case r < 6: // delete
				return deleteOne(tx, pick())
			case r < 8: // replace: the old and new row share one CSN
				tbl := pick()
				if err := deleteOne(tx, tbl); err != nil {
					return err
				}
				return insert(tx, tbl)
			default: // several tables in one transaction
				for i := 0; i < 2+rng.Intn(3); i++ {
					var err error
					if rng.Intn(2) == 0 {
						err = insert(tx, pick())
					} else {
						err = deleteOne(tx, pick())
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
		}); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			v := views[names[rng.Intn(len(names))]]
			if err := v.PropagateStep(); err != nil && !errors.Is(err, core.ErrNoProgress) {
				t.Fatalf("step %s: %v", v.Name(), err)
			}
		}
	}

	last := db.LastCSN()
	deltas := map[string]netDelta{}
	for _, i := range rng.Perm(len(names)) {
		n := names[i]
		if err := views[n].CatchUp(last); err != nil {
			t.Fatalf("catch up %s: %v", n, err)
		}
	}
	for _, n := range names {
		deltas[n] = collectNetDelta(t, views[n], start, last)
	}
	if len(deltas["flat"]) == 0 {
		t.Fatal("the history produced no join delta; the comparison is vacuous")
	}
	for _, pair := range [][2]string{
		{"flat", "cascade"},
		{"stepwise", "rolling"},
		{"stepwise", "keep"},
		{"flat", "stepwise"},
	} {
		if d := diffNetDelta(deltas[pair[0]], deltas[pair[1]]); d != "" {
			t.Errorf("%s and %s deltas differ per (CSN, row): %s", pair[0], pair[1], d)
		}
	}
}
