package rollingjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// cascadeFixture builds the canonical 3-level cascade: orders ⋈ regions
// (orders_enriched), a per-region rollup over it (hourly), and a view
// over the rollup (big_regions with a residual filter).
type cascadeFixture struct {
	db       *DB
	enriched *View
	hourly   *AggregateView
}

func newCascadeFixture(t *testing.T, opt Maintain) *cascadeFixture {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustCreate := func(name string, cols ...Column) {
		t.Helper()
		if err := db.CreateTable(name, cols...); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("orders",
		Column{Name: "oid", Type: TypeInt},
		Column{Name: "cust", Type: TypeInt},
		Column{Name: "amt", Type: TypeFloat},
	)
	mustCreate("regions",
		Column{Name: "cust", Type: TypeInt},
		Column{Name: "region", Type: TypeString},
	)
	enriched, err := db.DefineView(ViewSpec{
		Name:   "orders_enriched",
		Tables: []string{"orders", "regions"},
		Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	hourly, err := db.DefineAggregate(AggSpec{
		Name:    "hourly",
		Source:  "orders_enriched",
		GroupBy: []string{"region"},
		Aggs: []Agg{
			{Func: AggCount},
			{Func: AggSum, Column: "amt"},
			{Func: AggAvg, Column: "amt"},
			{Func: AggMin, Column: "amt"},
			{Func: AggMax, Column: "amt"},
		},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &cascadeFixture{db: db, enriched: enriched, hourly: hourly}
}

// recomputeHourly computes the rollup from scratch against the current
// committed base state via ad-hoc query, as the oracle.
func (f *cascadeFixture) recomputeHourly(t *testing.T) map[string][4]float64 {
	t.Helper()
	res, err := f.db.Query(ViewSpec{
		Name:   "oracle",
		Tables: []string{"orders", "regions"},
		Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	type acc struct {
		n        int64
		sum      float64
		min, max float64
	}
	groups := make(map[string]*acc)
	for _, row := range res.Rows {
		region := row[4].AsString()
		amt := row[2].AsFloat()
		a := groups[region]
		if a == nil {
			a = &acc{min: amt, max: amt}
			groups[region] = a
		} else {
			if amt < a.min {
				a.min = amt
			}
			if amt > a.max {
				a.max = amt
			}
		}
		a.n++
		a.sum += amt
	}
	out := make(map[string][4]float64, len(groups))
	for r, a := range groups {
		out[r] = [4]float64{float64(a.n), a.sum, a.min, a.max}
	}
	return out
}

// checkHourly compares the maintained rollup to the oracle.
func (f *cascadeFixture) checkHourly(t *testing.T, oracle map[string][4]float64) {
	t.Helper()
	rows := f.hourly.Rows()
	if len(rows) != len(oracle) {
		t.Fatalf("hourly has %d groups, oracle %d", len(rows), len(oracle))
	}
	for _, r := range rows {
		region := r[0].AsString()
		want, ok := oracle[region]
		if !ok {
			t.Fatalf("unexpected group %q", region)
		}
		n, sum, avg := r[1].AsInt(), r[2].AsFloat(), r[3].AsFloat()
		min, max := r[4].AsFloat(), r[5].AsFloat()
		if float64(n) != want[0] || !feq(sum, want[1]) || !feq(min, want[2]) || !feq(max, want[3]) {
			t.Fatalf("group %q = (n=%d sum=%v min=%v max=%v), want (n=%v sum=%v min=%v max=%v)",
				region, n, sum, min, max, want[0], want[1], want[2], want[3])
		}
		if wantAvg := want[1] / want[0]; !feq(avg, wantAvg) {
			t.Fatalf("group %q avg = %v, want %v", region, avg, wantAvg)
		}
	}
}

func feq(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

// TestCascadeBasic drives the fact → join view → rollup cascade through
// inserts and deletes and checks every level against recomputation.
func TestCascadeBasic(t *testing.T) {
	f := newCascadeFixture(t, Maintain{Interval: 4})
	db := f.db

	if _, err := db.DefineAggregate(AggSpec{
		Name:    "bad",
		Source:  "orders_enriched",
		GroupBy: []string{"ghost"},
		Aggs:    []Agg{{Func: AggCount}},
	}, Maintain{}); err == nil {
		t.Fatal("unknown group column should fail")
	}

	regions := []string{"east", "west", "north"}
	for c := 0; c < 6; c++ {
		c := c
		if _, err := db.Update(func(tx *Tx) error {
			return tx.Insert("regions", Int(int64(c)), Str(regions[c%len(regions)]))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		i := i
		if _, err := db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Int(int64(i%6)), Float(float64(10+i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a few orders, including current per-group maxima, to
	// exercise MIN/MAX retraction handling through the cascade.
	if _, err := db.Update(func(tx *Tx) error {
		for _, oid := range []int64{39, 38, 0, 7} {
			if _, err := tx.Delete("orders", "oid", EQ, Int(oid), 0); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	last := db.LastCSN()
	if err := f.hourly.CatchUp(last); err != nil {
		t.Fatal(err)
	}
	if _, err := f.enriched.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hourly.Refresh(); err != nil {
		t.Fatal(err)
	}
	f.checkHourly(t, f.recomputeHourly(t))

	// The join view itself must match a recomputation too.
	res, err := db.Query(ViewSpec{
		Name:   "oracle_join",
		Tables: []string{"orders", "regions"},
		Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int64(len(res.Rows)), f.enriched.Cardinality(); got != want {
		t.Fatalf("enriched has %d rows, oracle %d", want, got)
	}
}

// TestCascadeThirdLevel defines a plain view over the aggregate (level
// 3) and checks it tracks the rollup.
func TestCascadeThirdLevel(t *testing.T) {
	f := newCascadeFixture(t, Maintain{Interval: 4})
	db := f.db

	big, err := db.DefineView(ViewSpec{
		Name:    "big_regions",
		Tables:  []string{"hourly"},
		Filters: []Filter{{Table: "hourly", Column: "sum_amt", Op: GE, Value: Float(100)}},
	}, Maintain{Interval: 4})
	if err != nil {
		t.Fatal(err)
	}

	for c := 0; c < 4; c++ {
		c := c
		if _, err := db.Update(func(tx *Tx) error {
			return tx.Insert("regions", Int(int64(c)), Str(fmt.Sprintf("r%d", c%2)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		i := i
		if _, err := db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Int(int64(i%4)), Float(float64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}

	last := db.LastCSN()
	if err := big.CatchUp(last); err != nil {
		t.Fatal(err)
	}
	if err := big.RefreshTo(last); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hourly.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Oracle: groups of hourly with sum_amt >= 100 at the same instant.
	want := 0
	for _, r := range f.hourly.Rows() {
		if r[2].AsFloat() >= 100 {
			want++
		}
	}
	if got := int(big.Cardinality()); got != want {
		t.Fatalf("big_regions has %d rows, want %d", got, want)
	}
}

// TestCascadePointInTime checks per-level point-in-time refresh: each
// level rolled to the same mid-stream commit — the aggregate by wall-clock
// time — agrees with a recomputation of that prefix.
func TestCascadePointInTime(t *testing.T) {
	f := newCascadeFixture(t, Maintain{Interval: 2})
	db := f.db

	if _, err := db.Update(func(tx *Tx) error {
		for c := 0; c < 3; c++ {
			if err := tx.Insert("regions", Int(int64(c)), Str(fmt.Sprintf("r%d", c))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	regionsWall := time.Now()
	time.Sleep(2 * time.Millisecond)

	var mid CSN
	var midWall time.Time
	for i := 0; i < 20; i++ {
		csn, err := db.Update(func(tx *Tx) error {
			return tx.Insert("orders", Int(int64(i)), Int(int64(i%3)), Float(float64(i)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			mid = csn
			midWall = time.Now()
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Only client commits mint CSNs, so the wall time resolves to mid, the
	// last commit at or before it.
	at, err := db.CSNAt(midWall)
	if err != nil {
		t.Fatal(err)
	}
	if at != mid {
		t.Fatalf("CSNAt(midWall) = %d, want %d", at, mid)
	}

	// Expected rollup for the first 10 orders (ids 0..9, amt == id).
	exp := map[string][4]float64{}
	for i := 0; i < 10; i++ {
		r := fmt.Sprintf("r%d", i%3)
		a, ok := exp[r]
		if !ok {
			a = [4]float64{0, 0, float64(i), float64(i)}
		}
		a[0]++
		a[1] += float64(i)
		if float64(i) < a[2] {
			a[2] = float64(i)
		}
		if float64(i) > a[3] {
			a[3] = float64(i)
		}
		exp[r] = a
	}

	if err := f.hourly.CatchUp(at); err != nil {
		t.Fatal(err)
	}
	if err := f.enriched.RefreshTo(mid); err != nil {
		t.Fatal(err)
	}
	got, err := f.hourly.RefreshToTime(midWall)
	if err != nil {
		t.Fatal(err)
	}
	if got != at || f.hourly.MatTime() != at {
		t.Fatalf("RefreshToTime(midWall) landed on %d (MatTime %d), want %d", got, f.hourly.MatTime(), at)
	}
	f.checkHourly(t, exp)
	// An earlier wall time resolves below MatTime, and the aggregate never
	// rolls backward; nor does it roll beyond its high-water mark.
	if _, err := f.hourly.RefreshToTime(regionsWall); !errors.Is(err, ErrBackward) {
		t.Fatalf("RefreshToTime(regionsWall) = %v, want ErrBackward", err)
	}
	if err := f.hourly.RefreshTo(f.hourly.HWM() + 1000); !errors.Is(err, ErrBeyondHWM) {
		t.Fatalf("RefreshTo beyond HWM = %v, want ErrBeyondHWM", err)
	}

	// Roll everything to the end and check against the live oracle.
	last := db.LastCSN()
	if err := f.hourly.CatchUp(last); err != nil {
		t.Fatal(err)
	}
	if _, err := f.enriched.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hourly.Refresh(); err != nil {
		t.Fatal(err)
	}
	f.checkHourly(t, f.recomputeHourly(t))
}

// TestCascadeConcurrentWriters runs writers against the cascade while
// maintenance is live, then settles and compares every level with
// recomputation (run with -race).
func TestCascadeConcurrentWriters(t *testing.T) {
	f := newCascadeFixture(t, Maintain{Interval: 4, AutoRefresh: true})
	db := f.db

	if _, err := db.Update(func(tx *Tx) error {
		for c := 0; c < 8; c++ {
			if err := tx.Insert("regions", Int(int64(c)), Str(fmt.Sprintf("r%d", c%4))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				oid := int64(w*1000 + i)
				if _, err := db.Update(func(tx *Tx) error {
					return tx.Insert("orders", Int(oid), Int(int64(rng.Intn(8))), Float(float64(rng.Intn(500))))
				}); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 3 {
					if _, err := db.Update(func(tx *Tx) error {
						_, err := tx.Delete("orders", "oid", EQ, Int(int64(w*1000+rng.Intn(i+1))), 0)
						return err
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	last := db.LastCSN()
	if err := f.hourly.CatchUp(last); err != nil {
		t.Fatal(err)
	}
	if _, err := f.enriched.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hourly.Refresh(); err != nil {
		t.Fatal(err)
	}
	f.checkHourly(t, f.recomputeHourly(t))
}

// TestAggregateOverBaseTable aggregates a base table directly (no view
// in between).
func TestAggregateOverBaseTable(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("m",
		Column{Name: "k", Type: TypeInt},
		Column{Name: "v", Type: TypeFloat},
	); err != nil {
		t.Fatal(err)
	}
	agg, err := db.DefineAggregate(AggSpec{
		Name:    "m_by_k",
		Source:  "m",
		GroupBy: []string{"k"},
		Aggs:    []Agg{{Func: AggCount}, {Func: AggMax, Column: "v"}},
	}, Maintain{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		i := i
		if _, err := db.Update(func(tx *Tx) error {
			return tx.Insert("m", Int(int64(i%4)), Float(float64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Remove the global maximum: group 3 loses v=19, must fall back to 15.
	if _, err := db.Update(func(tx *Tx) error {
		_, err := tx.Delete("m", "v", EQ, Float(19), 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := agg.CatchUp(db.LastCSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Refresh(); err != nil {
		t.Fatal(err)
	}
	rows := agg.Rows()
	if len(rows) != 4 {
		t.Fatalf("got %d groups, want 4", len(rows))
	}
	for _, r := range rows {
		k, n, max := r[0].AsInt(), r[1].AsInt(), r[2].AsFloat()
		wantN, wantMax := int64(5), float64(16+k)
		if k == 3 {
			wantN, wantMax = 4, 15
		}
		if n != wantN || max != wantMax {
			t.Fatalf("group %d = (n=%d max=%v), want (n=%d max=%v)", k, n, max, wantN, wantMax)
		}
	}
}

// TestCascadeDefineDropChurn churns whole cascades — join view, rollup
// over it, filtered view over the rollup — across goroutines while
// writers commit, repeatedly dropping the bottom view (which must cascade
// to its dependents) and redefining the same names. It verifies that
// dropping deregisters the dependent maintenance jobs and frees the
// names for reuse, and that the final surviving cascade is still correct.
// Run with -race.
func TestCascadeDefineDropChurn(t *testing.T) {
	f := newCascadeFixture(t, Maintain{})
	for i := 0; i < 10; i++ {
		i := i
		if _, err := f.db.Update(func(tx *Tx) error {
			if err := tx.Insert("regions", Int(int64(i)), Str(fmt.Sprintf("r%d", i%3))); err != nil {
				return err
			}
			return tx.Insert("orders", Int(int64(i)), Int(int64(i)), Float(float64(10*i)))
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A throttled concurrent writer: enough traffic that defines and drops
	// overlap live propagation, but bounded so each redefined cascade's
	// catch-up stays short.
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for n := 100; ; n++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			n := n
			if _, err := f.db.Update(func(tx *Tx) error {
				return tx.Insert("orders", Int(int64(n)), Int(int64(n%10)), Float(1))
			}); err != nil {
				return
			}
		}
	}()

	const goroutines, rounds = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			vname := fmt.Sprintf("churn_v%d", g)
			aname := fmt.Sprintf("churn_a%d", g)
			tname := fmt.Sprintf("churn_t%d", g)
			for r := 0; r < rounds; r++ {
				if _, err := f.db.DefineView(ViewSpec{
					Name:   vname,
					Tables: []string{"orders", "regions"},
					Joins:  []Join{{LeftTable: "orders", LeftColumn: "cust", RightTable: "regions", RightColumn: "cust"}},
				}, Maintain{}); err != nil {
					errs <- fmt.Errorf("round %d: define %s: %w", r, vname, err)
					return
				}
				if _, err := f.db.DefineAggregate(AggSpec{
					Name:    aname,
					Source:  vname,
					GroupBy: []string{"region"},
					Aggs:    []Agg{{Func: AggCount}, {Func: AggSum, Column: "amt"}},
				}, Maintain{}); err != nil {
					errs <- fmt.Errorf("round %d: define %s: %w", r, aname, err)
					return
				}
				if _, err := f.db.DefineView(ViewSpec{
					Name:    tname,
					Tables:  []string{aname},
					Filters: []Filter{{Table: aname, Column: "sum_amt", Op: GE, Value: Float(0)}},
				}, Maintain{}); err != nil {
					errs <- fmt.Errorf("round %d: define %s: %w", r, tname, err)
					return
				}
				// Dropping the bottom view must take the whole cascade with it.
				if err := f.db.DropView(vname); err != nil {
					errs <- fmt.Errorf("round %d: drop %s: %w", r, vname, err)
					return
				}
				if _, ok := f.db.Aggregate(aname); ok {
					errs <- fmt.Errorf("round %d: %s survived its upstream drop", r, aname)
					return
				}
				if _, ok := f.db.View(tname); ok {
					errs <- fmt.Errorf("round %d: %s survived its upstream drop", r, tname)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The long-lived cascade from the fixture survived the churn intact.
	if err := f.hourly.CatchUp(f.db.LastCSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.hourly.Refresh(); err != nil {
		t.Fatal(err)
	}
	f.checkHourly(t, f.recomputeHourly(t))
}
