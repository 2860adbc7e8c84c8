package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

func TestViewDefValidate(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	bad := &ViewDef{Name: "empty"}
	if err := bad.Validate(env.db); err == nil {
		t.Fatal("empty view must fail")
	}
	bad = &ViewDef{Name: "missing", Relations: []string{"nope"}}
	if err := bad.Validate(env.db); err == nil {
		t.Fatal("missing table must fail")
	}
	bad = &ViewDef{Name: "badcol", Relations: []string{"r1", "r2"},
		Conds: []engine.JoinCond{{A: engine.ColRef{Input: 0, Col: 9}, B: engine.ColRef{Input: 1, Col: 0}}}}
	if err := bad.Validate(env.db); err == nil {
		t.Fatal("bad column must fail")
	}
	bad = &ViewDef{Name: "badproj", Relations: []string{"r1", "r2"},
		Project: []engine.ColRef{{Input: 5, Col: 0}}}
	if err := bad.Validate(env.db); err == nil {
		t.Fatal("bad projection must fail")
	}
}

func TestViewSchema(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	sch, err := env.view.Schema(env.db)
	if err != nil {
		t.Fatal(err)
	}
	names := sch.Names()
	if len(names) != 4 || names[0] != "k" || names[2] != "r2_k" {
		t.Fatalf("schema names %v", names)
	}
	proj := &ViewDef{Name: "p", Relations: []string{"r1", "r2"},
		Conds:   env.view.Conds,
		Project: []engine.ColRef{{Input: 0, Col: 0}, {Input: 1, Col: 1}}}
	sch2, err := proj.Schema(env.db)
	if err != nil {
		t.Fatal(err)
	}
	if sch2.Arity() != 2 || sch2.Names()[0] != "k" || sch2.Names()[1] != "r2_v" {
		t.Fatalf("projected schema %v", sch2.Names())
	}
}

func TestPropQueryBasics(t *testing.T) {
	v := chainView("v", 3)
	q := AllBase(v)
	if !q.HasBase() || q.MaxDeltaHi() != 0 {
		t.Fatal("all-base query")
	}
	q2 := q.WithDelta(1, 3, 9)
	if q.Pos[1].Delta {
		t.Fatal("WithDelta must not mutate the receiver")
	}
	if !q2.Pos[1].Delta || q2.MaxDeltaHi() != 9 {
		t.Fatal("delta position")
	}
	q3 := q2.Negated()
	if q3.Sign != -1 || q2.Sign != 1 {
		t.Fatal("negation")
	}
	if q3.String()[:len("−")] != "−" {
		t.Fatalf("negated string: %s", q3.String())
	}
	all := q.WithDelta(0, 0, 5).WithDelta(1, 0, 5).WithDelta(2, 0, 5)
	if all.HasBase() {
		t.Fatal("all-delta query has no base")
	}
}

func TestRealizability(t *testing.T) {
	v := chainView("v", 3)
	// R^1 ⋈ ΔR^2(a,b] ⋈ R^3 is realizable only when both base tables are
	// seen at a time >= b.
	q := AllBase(v).WithDelta(1, 2, 5)
	if !q.Realizable([]relalg.CSN{7, 0, 7}, 7) {
		t.Fatal("should be realizable at 7")
	}
	if q.Realizable([]relalg.CSN{7, 0, 8}, 8) {
		t.Fatal("mismatched base times")
	}
	if q.Realizable([]relalg.CSN{4, 0, 4}, 4) {
		t.Fatal("window not closed at 4")
	}
	// All-delta queries are realizable at any time after the windows close.
	qa := AllBase(v).WithDelta(0, 0, 3).WithDelta(1, 0, 3).WithDelta(2, 0, 3)
	if !qa.Realizable([]relalg.CSN{0, 0, 0}, 3) || !qa.Realizable([]relalg.CSN{0, 0, 0}, 99) {
		t.Fatal("all-delta realizability")
	}
}

// TestComputeDeltaEq3Shape verifies the Figure 4 / Equation 3 structure for
// V = R1 ⋈ R2 under snapshot execution: two forward queries and one
// compensation query (position 0 reads everything at t_new and needs no
// correction; position 1's compensation subtracts the Δ1 ⊗ Δ2 overlap).
func TestComputeDeltaEq3Shape(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	env.exec.SkipEmptyWindows = false
	var trace []TraceEntry
	env.exec.OnQuery = func(e TraceEntry) { trace = append(trace, e) }

	env.insert("r1", 1)
	env.insert("r2", 1)
	b := env.insert("r1", 2)

	if err := env.exec.ComputeDelta(AllBase(env.view), []relalg.CSN{0, 0}, b); err != nil {
		t.Fatal(err)
	}
	var fwd, comp int
	for _, e := range trace {
		if e.Kind == KindForward {
			fwd++
		} else {
			comp++
		}
	}
	if fwd != 2 || comp != 1 {
		t.Fatalf("Eq.3 should yield 2 forward + 1 compensation query, got %d + %d", fwd, comp)
	}
	st := env.exec.Stats()
	if st.ForwardQueries != 2 || st.CompensationQueries != 1 || st.MaxDepth != 1 {
		t.Fatalf("stats: %+v", st)
	}
	env.checkTimedDelta(0, b)
}

// TestMinTimestampDeleteScenario reproduces the Section 3.3 deletion
// example: r1r2 in the view, r1 deleted at t_a, r2 deleted at t_b > t_a;
// the net view delta must delete the join tuple at t_a.
func TestMinTimestampDeleteScenario(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	env.insert("r1", 7)
	t0 := env.insert("r2", 7)
	ta := env.delete("r1", 7)
	tb := env.delete("r2", 7)

	if err := env.exec.ComputeDelta(AllBase(env.view), []relalg.CSN{t0, t0}, tb); err != nil {
		t.Fatal(err)
	}
	net := relalg.NetEffect(env.dest.Window(t0, ta))
	if net.Len() != 1 || net.Rows[0].Count != -1 {
		t.Fatalf("deletion must appear at t_a=%d: %s", ta, net)
	}
	if relalg.NetEffect(env.dest.Window(ta, tb)).Len() != 0 {
		t.Fatal("nothing should change in (t_a, t_b]")
	}
	env.checkTimedDelta(t0, tb)
}

// TestMinTimestampInsertScenario reproduces the Section 3.3 insertion
// example: x1 inserted at t_a, x2 at t_b; the join tuple must appear at t_b
// (the max, produced by the min-rule cancellation).
func TestMinTimestampInsertScenario(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	ta := env.insert("r1", 5)
	tb := env.insert("r2", 5)

	if err := env.exec.ComputeDelta(AllBase(env.view), []relalg.CSN{0, 0}, tb); err != nil {
		t.Fatal(err)
	}
	if relalg.NetEffect(env.dest.Window(0, ta)).Len() != 0 {
		t.Fatal("nothing should appear at or before t_a")
	}
	net := relalg.NetEffect(env.dest.Window(ta, tb))
	if net.Len() != 1 || net.Rows[0].Count != 1 {
		t.Fatalf("insertion must appear in (t_a, t_b]: %s", net)
	}
	env.checkTimedDelta(0, tb)
}

// TestComputeDeltaOracle is the Theorem 4.1 oracle: for random histories
// over 2- and 3-way views, ComputeDelta produces a timed delta table. The
// fourth history commits multi-op transactions, whose rows across several
// tables share one CSN and must form one boundary of the view delta.
func TestComputeDeltaOracle(t *testing.T) {
	for _, n := range []int{2, 3} {
		for seed := int64(0); seed < 4; seed++ {
			env := newEnv(t, chainView("v", n))
			r := rand.New(rand.NewSource(seed))
			var last relalg.CSN
			if seed < 3 {
				last = env.randomHistory(r, 40, 4)
			} else {
				for i := 0; i < 15; i++ {
					last = env.multiOpTxn(r, 1+r.Intn(4), 6)
				}
			}
			if err := env.exec.ComputeDelta(AllBase(env.view), make([]relalg.CSN, n), last); err != nil {
				t.Fatal(err)
			}
			env.checkTimedDelta(0, last)
		}
	}
}

// TestComputeDeltaAsyncWithConcurrentUpdates runs ComputeDelta for an old
// interval while new updates keep arriving — the asynchrony of Section 3.2.
func TestComputeDeltaAsyncWithConcurrentUpdates(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	r := rand.New(rand.NewSource(11))
	mid := env.randomHistory(r, 25, 4)

	// Interleave: more updates arrive while we propagate (0, mid].
	done := make(chan struct{})
	go func() {
		defer close(done)
		r2 := rand.New(rand.NewSource(12))
		env.randomHistory(r2, 25, 4)
	}()
	if err := env.exec.ComputeDelta(AllBase(env.view), []relalg.CSN{0, 0}, mid); err != nil {
		t.Fatal(err)
	}
	<-done
	env.checkTimedDelta(0, mid)
}

// TestPropagateOracle is the Theorem 4.2 oracle.
func TestPropagateOracle(t *testing.T) {
	for _, n := range []int{2, 3} {
		env := newEnv(t, chainView("v", n))
		r := rand.New(rand.NewSource(21))
		last := env.randomHistory(r, 40, 4)
		p := NewPropagator(env.exec, 0, FixedInterval(5))
		drainPropagate(t, p, last)
		if p.HWM() < last {
			t.Fatalf("hwm %d < %d", p.HWM(), last)
		}
		env.checkTimedDelta(0, last)
	}
}

// TestRollingOracle is the Theorem 4.3 oracle: rolling propagation with
// unequal per-relation intervals over random histories, for 2-, 3-, and
// 4-way views.
func TestRollingOracle(t *testing.T) {
	cases := []struct {
		n         int
		intervals []relalg.CSN
		ops       int
	}{
		{2, []relalg.CSN{3, 7}, 50},
		{2, []relalg.CSN{1, 13}, 50},
		{3, []relalg.CSN{2, 5, 11}, 45},
		{4, []relalg.CSN{3, 4, 7, 2}, 30},
	}
	for ci, c := range cases {
		for seed := int64(0); seed < 2; seed++ {
			env := newEnv(t, chainView("v", c.n))
			r := rand.New(rand.NewSource(100*int64(ci) + seed))
			last := env.randomHistory(r, c.ops, 4)
			rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(c.intervals...))
			drainRolling(t, rp, last)
			if rp.HWM() < last {
				t.Fatalf("case %d: hwm %d < %d", ci, rp.HWM(), last)
			}
			env.checkTimedDelta(0, last)
		}
	}
}

// TestRollingOracleWithIndexes re-runs the Theorem 4.3 oracle with hash
// indexes on the join columns, exercising the index-nested-loop path of
// the propagation-query executor.
func TestRollingOracleWithIndexes(t *testing.T) {
	env := newEnv(t, chainView("v", 3))
	for _, table := range env.view.Relations {
		if _, err := env.db.CreateIndex(table, "k"); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(800))
	last := env.randomHistory(r, 45, 4)
	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(3, 8, 5))
	drainRolling(t, rp, last)
	env.checkTimedDelta(0, last)
	if env.db.Stats().IndexProbes == 0 {
		t.Fatal("expected index probes during propagation")
	}
}

// TestRollingOracleMultiOpTransactions drives transactions that change
// several rows (possibly in several tables) per commit, so delta rows share
// timestamps.
func TestRollingOracleMultiOpTransactions(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		env := newEnv(t, chainView("v", 3))
		r := rand.New(rand.NewSource(700 + seed))
		var last relalg.CSN
		for i := 0; i < 20; i++ {
			last = env.multiOpTxn(r, 1+r.Intn(5), 4)
		}
		rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(2, 7, 3))
		drainRolling(t, rp, last)
		env.checkTimedDelta(0, last)
	}
}

// TestRollingOracleNoSkip disables the empty-window optimization to
// exercise the full compensation machinery.
func TestRollingOracleNoSkip(t *testing.T) {
	env := newEnv(t, chainView("v", 3))
	env.exec.SkipEmptyWindows = false
	r := rand.New(rand.NewSource(31))
	last := env.randomHistory(r, 30, 3)
	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(2, 9, 4))
	drainRolling(t, rp, last)
	env.checkTimedDelta(0, last)
}

// TestRollingConcurrentWithWriters runs the rolling propagator concurrently
// with the update stream.
func TestRollingConcurrentWithWriters(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(3, 8))
	// Drive Step on a separate goroutine the way the scheduler does:
	// event-free polling here, since the test owns both sides.
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if err := rp.Step(); err != nil {
				if errors.Is(err, ErrNoProgress) {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				errs <- err
				return
			}
		}
	}()

	r := rand.New(rand.NewSource(41))
	last := env.randomHistory(r, 60, 5)
	// Let the propagator catch up, then stop it.
	for rp.HWM() < last {
	}
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	env.checkTimedDelta(0, last)
}

// TestRollingViewWithProjectionAndResidual exercises a view with selection
// and projection through the whole pipeline.
func TestRollingViewWithProjectionAndResidual(t *testing.T) {
	v := chainView("v", 2)
	v.Residual = relalg.ColConst{Col: 0, Op: relalg.OpLE, Val: tuple.Int(2)} // k <= 2
	v.Project = []engine.ColRef{{Input: 0, Col: 0}, {Input: 1, Col: 1}}
	env := newEnv(t, v)
	r := rand.New(rand.NewSource(51))
	last := env.randomHistory(r, 40, 4)
	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(4, 6))
	drainRolling(t, rp, last)
	env.checkTimedDelta(0, last)
}

// TestHWMTracksTcomp verifies the Figure 9 bookkeeping: after R1 forward
// queries outpace R2, the HWM is held back at the lowest ledger boundary
// the lagging relation still has pending.
func TestHWMTracksTcomp(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	env.exec.SkipEmptyWindows = false
	for i := 0; i < 12; i++ {
		env.insert("r1", int64(i%3))
		env.insert("r2", int64(i%3))
	}
	if err := env.cap.WaitProgress(env.db.LastCSN()); err != nil {
		t.Fatal(err)
	}
	rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(2, 2))
	if rp.HWM() != 0 {
		t.Fatal("initial hwm")
	}
	// One forward step for r1: it advances past the first shared cell, but
	// r2 has not processed that cell yet, so the HWM stays 0.
	if err := rp.Step(); err != nil {
		t.Fatal(err)
	}
	if got := rp.TFwd()[0]; got != 2 {
		t.Fatalf("tfwd[0] = %d", got)
	}
	if rp.HWM() != 0 {
		t.Fatalf("hwm should be pinned by r2's pending cell, got %d", rp.HWM())
	}
	// Step r2 through the same cell: its slice compensates the overlap with
	// r1's, completing the cell and releasing the HWM to its upper bound.
	if err := rp.Step(); err != nil {
		t.Fatal(err)
	}
	if got := rp.HWM(); got != 2 {
		t.Fatalf("hwm after both slices of cell (0,2] = %d, want 2", got)
	}
	last := env.db.LastCSN()
	drainRolling(t, rp, last)
	if rp.HWM() < last {
		t.Fatalf("hwm %d < %d after drain", rp.HWM(), last)
	}
	env.checkTimedDelta(0, last)
}

// TestHWMMonotonicQuick is a property test: under random interval policies
// and random histories, the rolling high-water mark and every tfwd only
// move forward.
func TestHWMMonotonicQuick(t *testing.T) {
	f := func(seed int64, d1Raw, d2Raw uint8) bool {
		env := newEnv(t, chainView("v", 2))
		r := rand.New(rand.NewSource(seed))
		last := env.randomHistory(r, 25, 3)
		d1 := relalg.CSN(d1Raw%9) + 1
		d2 := relalg.CSN(d2Raw%9) + 1
		rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(d1, d2))
		prevHWM := rp.HWM()
		prevT := rp.TFwd()
		for rp.HWM() < last {
			if err := rp.Step(); err != nil {
				if errors.Is(err, ErrNoProgress) {
					continue
				}
				t.Log(err)
				return false
			}
			if h := rp.HWM(); h < prevHWM {
				t.Logf("hwm went backwards: %d -> %d", prevHWM, h)
				return false
			} else {
				prevHWM = h
			}
			cur := rp.TFwd()
			for i := range cur {
				if cur[i] < prevT[i] {
					t.Logf("tfwd[%d] went backwards", i)
					return false
				}
			}
			prevT = cur
		}
		env.checkTimedDelta(0, last)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestRollingOracleHeavy is a larger randomized sweep, skipped in -short
// runs.
func TestRollingOracleHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy oracle sweep")
	}
	for seed := int64(0); seed < 4; seed++ {
		env := newEnv(t, chainView("v", 3))
		r := rand.New(rand.NewSource(9000 + seed))
		last := env.randomHistory(r, 70, 5)
		d := []relalg.CSN{relalg.CSN(1 + r.Intn(9)), relalg.CSN(1 + r.Intn(9)), relalg.CSN(1 + r.Intn(9))}
		rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(d...))
		drainRolling(t, rp, last)
		env.checkTimedDelta(0, last)
	}
}

func TestPropagatorStepNoProgress(t *testing.T) {
	env := newEnv(t, chainView("v", 2))
	p := NewPropagator(env.exec, 0, FixedInterval(5))
	if err := p.Step(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	rp := NewRollingPropagator(env.exec, 0, FixedInterval(5))
	if err := rp.Step(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
}

// starView builds fact ⋈ dim1 ⋈ ... ⋈ dimN on k (all conds against input 0).
func starView(name string, dims int) *ViewDef {
	v := &ViewDef{Name: name, Relations: []string{"r1"}}
	for i := 0; i < dims; i++ {
		v.Relations = append(v.Relations, fmt.Sprintf("r%d", i+2))
		v.Conds = append(v.Conds, engine.JoinCond{
			A: engine.ColRef{Input: 0, Col: 0},
			B: engine.ColRef{Input: i + 1, Col: 0},
		})
	}
	return v
}

// TestConcurrentWritersOracle drives rolling propagation over a star view
// while a writer goroutine keeps committing, then checks the timed-delta
// oracle over the rolled range.
func TestConcurrentWritersOracle(t *testing.T) {
	for round := 0; round < 2; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(round*10 + 1)))
			env := newEnv(t, starView(fmt.Sprintf("vc%d", round), 2))
			rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(2, 5, 5))

			done := make(chan relalg.CSN)
			go func() {
				var last relalg.CSN
				for i := 0; i < 80; i++ {
					table := env.view.Relations[r.Intn(env.view.N())]
					k := int64(r.Intn(4))
					if r.Intn(3) == 0 {
						last = env.delete(table, k)
					} else {
						last = env.insert(table, k)
					}
				}
				done <- last
			}()

			var last relalg.CSN
			writerDone := false
			for !writerDone || rp.HWM() < last {
				select {
				case last = <-done:
					writerDone = true
				default:
				}
				if err := rp.Step(); err != nil && err != ErrNoProgress {
					t.Fatal(err)
				}
			}
			env.checkTimedDelta(0, rp.HWM())
		})
	}
}

// TestExecStatsConsistent checks that the executor's stats add up: every
// executed query is either forward or compensation, once in the trace and
// once in each metrics histogram, and the rows/batches counters agree with
// the metrics sums.
func TestExecStatsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	env := newEnv(t, chainView("vstat", 2))
	env.exec.Metrics = NewExecMetrics()
	var traced int64
	env.exec.OnQuery = func(TraceEntry) { traced++ }
	last := env.randomHistory(r, 30, 4)
	if err := env.cap.WaitProgress(last); err != nil {
		t.Fatal(err)
	}
	if err := env.exec.ComputeDelta(AllBase(env.view), []relalg.CSN{0, 0}, last); err != nil {
		t.Fatal(err)
	}
	s := env.exec.Stats()
	executed := s.ForwardQueries + s.CompensationQueries
	if executed == 0 {
		t.Fatal("no queries executed")
	}
	if traced != executed {
		t.Fatalf("trace saw %d queries, stats say %d", traced, executed)
	}
	m := env.exec.Metrics
	if int64(m.Latency.Count()) != executed || int64(m.Rows.Count()) != executed {
		t.Fatalf("metrics samples %d/%d, want %d", m.Latency.Count(), m.Rows.Count(), executed)
	}
	if m.Rows.Sum() != s.RowsProduced {
		t.Fatalf("metrics rows %d != stats rows %d", m.Rows.Sum(), s.RowsProduced)
	}
	if m.Batches.Sum() != s.BatchesProduced {
		t.Fatalf("metrics batches %d != stats batches %d", m.Batches.Sum(), s.BatchesProduced)
	}
}
