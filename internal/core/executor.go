package core

import (
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/relalg"
)

// QueryKind classifies executed propagation queries for tracing and stats.
type QueryKind uint8

// The query kinds.
const (
	// KindForward is a propagation query with exactly one delta position
	// introduced by the driver (the paper's forward queries).
	KindForward QueryKind = iota
	// KindCompensation is a query generated by recursive compensation.
	KindCompensation
)

// String names the query kind.
func (k QueryKind) String() string {
	if k == KindForward {
		return "forward"
	}
	return "compensation"
}

// TraceEntry records one executed propagation query, for the demo tool and
// the figure-reproduction experiments.
type TraceEntry struct {
	Kind  QueryKind
	Query string
	Exec  relalg.CSN
	Rows  int
	Depth int
}

// ExecStats aggregates executor activity.
type ExecStats struct {
	ForwardQueries      int64
	CompensationQueries int64
	SkippedEmpty        int64
	RowsProduced        int64
	BatchesProduced     int64
	MaxDepth            int
}

// ExecMetrics collects per-propagation-query distributions for live
// monitoring (cmd/rollload): query latency plus rows and batches produced.
// Any nil histogram is simply skipped, so callers can subscribe to a subset.
type ExecMetrics struct {
	Latency *metrics.Histogram
	Rows    *metrics.IntHistogram
	Batches *metrics.IntHistogram
}

// NewExecMetrics returns an ExecMetrics with all histograms allocated.
func NewExecMetrics() *ExecMetrics {
	return &ExecMetrics{
		Latency: metrics.NewHistogram(),
		Rows:    metrics.NewIntHistogram(),
		Batches: metrics.NewIntHistogram(),
	}
}

// observe records one executed query.
func (m *ExecMetrics) observe(d time.Duration, rows, batches int64) {
	if m == nil {
		return
	}
	if m.Latency != nil {
		m.Latency.Observe(d)
	}
	if m.Rows != nil {
		m.Rows.Observe(rows)
	}
	if m.Batches != nil {
		m.Batches.Observe(batches)
	}
}

// Executor runs propagation queries for one view, accumulating results in
// the view delta table. It implements ComputeDelta (Figure 4).
type Executor struct {
	db   *engine.DB
	src  capture.Source
	view *ViewDef
	dest *engine.DeltaTable

	// SkipEmptyWindows elides queries (and their entire compensation
	// subtree) whose introduced delta window contains no rows: such a query
	// is identically empty at every evaluation time, so both its result and
	// its compensation vanish. This is the optimization that makes skewed
	// (star-schema) workloads cheap; the ablation benchmark toggles it.
	SkipEmptyWindows bool

	// OnQuery, if set, is invoked after each executed propagation query,
	// on the goroutine running the propagation step.
	OnQuery func(TraceEntry)

	// Metrics, if set, receives per-query latency/rows/batches samples.
	Metrics *ExecMetrics

	// mu guards stats, which Stats reads from other goroutines while a
	// step runs.
	mu    sync.Mutex
	stats ExecStats
}

// NewExecutor builds an executor for the view. dest is the view delta
// table; src gates delta-window reads on capture progress.
func NewExecutor(db *engine.DB, src capture.Source, view *ViewDef, dest *engine.DeltaTable) *Executor {
	return &Executor{db: db, src: src, view: view, dest: dest, SkipEmptyWindows: true}
}

// Stats returns a snapshot of executor statistics.
func (e *Executor) Stats() ExecStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// noteSkipped bumps the skipped-empty-window counter.
func (e *Executor) noteSkipped() {
	e.mu.Lock()
	e.stats.SkippedEmpty++
	e.mu.Unlock()
}

// windowEmpty reports whether the delta window (lo, hi] of relation i holds
// no rows. Only valid once capture progress has passed hi.
func (e *Executor) windowEmpty(i int, lo, hi relalg.CSN) bool {
	d, err := e.db.Delta(e.view.Relations[i])
	if err != nil {
		return false
	}
	return d.Window(lo, hi).Len() == 0
}

// execute runs one propagation query transactionally, appending its signed
// result to the view delta, and returns the query's execution time t_e.
// The query reads every base position through the read view at asOf, so
// t_e == asOf by construction: executed time equals intended time, and
// compensation never has to chase an uncontrolled commit CSN.
func (e *Executor) execute(q *PropQuery, kind QueryKind, depth int, asOf relalg.CSN) (relalg.CSN, error) {
	if err := e.src.WaitProgress(q.MaxDeltaHi()); err != nil {
		return 0, err
	}
	start := time.Now()
	eq := q.EngineQuery()
	eq.AsOf = asOf
	csn, rows, batches, err := e.db.ExecutePropagation(eq, q.Sign, e.dest)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	if kind == KindForward {
		e.stats.ForwardQueries++
	} else {
		e.stats.CompensationQueries++
	}
	e.stats.RowsProduced += int64(rows)
	e.stats.BatchesProduced += int64(batches)
	if depth > e.stats.MaxDepth {
		e.stats.MaxDepth = depth
	}
	e.mu.Unlock()
	e.Metrics.observe(time.Since(start), int64(rows), int64(batches))
	if e.OnQuery != nil {
		e.OnQuery(TraceEntry{Kind: kind, Query: q.String(), Exec: csn, Rows: rows, Depth: depth})
	}
	return csn, nil
}

// ComputeDelta implements Figure 4: it appends to the view delta the delta
// of query q from the vector time tauOld to time tNew, executing one query
// per base position and recursively compensating each query from its
// intended observation times back to its actual execution time.
//
// Entries of tauOld at delta positions are ignored. The top-level call for
// a view delta V_{a,b} is ComputeDelta(AllBase(V), [a,...,a], b).
func (e *Executor) ComputeDelta(q *PropQuery, tauOld []relalg.CSN, tNew relalg.CSN) error {
	return e.computeDelta(q, tauOld, tNew, 0)
}

// propagatePosition runs the position-i propagation query of q and its
// recursive compensation subtree.
//
// Every query in the subtree executes against the read view at tNew, so
// its execution time IS tNew and the compensation recursion reduces to
// the exact inclusion-exclusion expansion: position i's query intended to
// see R^j at tauOld[j] for j < i (Equation 2's convention) but saw it at
// tNew, so the correction subtracts the query's own delta over
// (tauOld[j], tNew] for exactly the positions left of i — positions right
// of i intended tNew and got tNew, needing nothing. The recursion
// terminates because each level fixes one more position as a delta.
func (e *Executor) propagatePosition(q *PropQuery, tauOld []relalg.CSN, tNew relalg.CSN, depth, i int) error {
	qd := q.WithDelta(i, tauOld[i], tNew)
	kind := KindCompensation
	if depth == 0 && q.Sign > 0 {
		kind = KindForward
	}
	tExec, err := e.execute(qd, kind, depth, tNew)
	if err != nil {
		return err
	}
	if !qd.HasBase() {
		return nil
	}
	tauIntended := make([]relalg.CSN, len(tauOld))
	for j := range tauIntended {
		if j < i {
			tauIntended[j] = tauOld[j]
		} else {
			tauIntended[j] = tNew
		}
	}
	// Positions at or right of i intended tNew == tExec, so the recursion
	// skips them; only genuinely stale positions descend.
	return e.computeDelta(qd.Negated(), tauIntended, tExec, depth+1)
}

func (e *Executor) computeDelta(q *PropQuery, tauOld []relalg.CSN, tNew relalg.CSN, depth int) error {
	for i := range q.Pos {
		if q.Pos[i].Delta || tauOld[i] >= tNew {
			continue
		}
		if e.SkipEmptyWindows {
			if err := e.src.WaitProgress(tNew); err != nil {
				return err
			}
			if e.windowEmpty(i, tauOld[i], tNew) {
				e.noteSkipped()
				continue
			}
		}
		if err := e.propagatePosition(q, tauOld, tNew, depth, i); err != nil {
			return err
		}
	}
	return nil
}
