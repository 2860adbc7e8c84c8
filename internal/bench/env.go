// Package bench implements the experiment suite of EXPERIMENTS.md: one
// function per figure/claim of the paper, each returning printable result
// tables. cmd/rollbench drives the full suite; the root-level
// bench_test.go wraps each experiment as a testing.B benchmark.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/workload"
)

// Experiment-level engine counters: every Env.Close folds its database's
// activity counters into a global accumulator, so a driver (cmd/rollbench)
// can report rows scanned / joined / queries per experiment even though
// each experiment opens its own databases.
var (
	countersMu sync.Mutex
	counters   engine.Stats
)

// ResetCounters clears the accumulated engine counters.
func ResetCounters() {
	countersMu.Lock()
	counters = engine.Stats{}
	countersMu.Unlock()
}

// Counters returns the engine counters accumulated since the last reset.
func Counters() engine.Stats {
	countersMu.Lock()
	defer countersMu.Unlock()
	return counters
}

func accumulate(s engine.Stats) {
	countersMu.Lock()
	counters.RowsScanned += s.RowsScanned
	counters.RowsJoined += s.RowsJoined
	counters.QueriesRun += s.QueriesRun
	counters.RowsInserted += s.RowsInserted
	counters.RowsDeleted += s.RowsDeleted
	counters.IndexProbes += s.IndexProbes
	countersMu.Unlock()
}

// Env bundles everything one experiment run needs.
type Env struct {
	DB   *engine.DB
	Cap  *capture.LogCapture
	W    *workload.Workload
	Exec *core.Executor
	Dest *engine.DeltaTable
}

// NewEnv builds a database, loads the workload, and wires the capture
// process and view-delta executor. Every table gets a hash index on its
// join column "k" (all workload tables share the (k, v) schema), so
// propagation queries exercise the index-nested-loop path the planner
// supports — matching how a production deployment would declare its join
// columns. NewEnvBare skips the indexes for scan-path baselines.
func NewEnv(w *workload.Workload, seed int64) (*Env, error) {
	return newEnv(w, seed, true)
}

// NewEnvBare is NewEnv without join-column indexes: base positions fall
// back to full scans (hash join), the seed behavior. Used as the baseline
// arm of the index ablation.
func NewEnvBare(w *workload.Workload, seed int64) (*Env, error) {
	return newEnv(w, seed, false)
}

func newEnv(w *workload.Workload, seed int64, indexed bool) (*Env, error) {
	db, err := engine.Open(engine.Config{})
	if err != nil {
		return nil, err
	}
	if err := w.Setup(db, rand.New(rand.NewSource(seed))); err != nil {
		db.Close()
		return nil, err
	}
	if indexed {
		for _, spec := range w.Tables {
			if _, err := db.CreateIndex(spec.Name, "k"); err != nil {
				db.Close()
				return nil, err
			}
		}
	}
	schema, err := w.View.Schema(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	dest, err := db.CreateStandaloneDelta("Δ"+w.View.Name, schema)
	if err != nil {
		db.Close()
		return nil, err
	}
	c := capture.NewLogCapture(db)
	c.Start()
	return &Env{
		DB:   db,
		Cap:  c,
		W:    w,
		Exec: core.NewExecutor(db, c, w.View, dest),
		Dest: dest,
	}, nil
}

// image seeds an unregistered image of the view delta with rel at time
// at; hwm bounds the image's rolls.
func (e *Env) image(rel *relalg.Relation, at relalg.CSN, hwm func() relalg.CSN) (*engine.Derived, error) {
	dv := engine.NewDerived(e.Dest, hwm)
	return dv, dv.SetImage(rel, at)
}

// matchesRecompute reports whether an image equals the view recomputed
// from the base tables.
func (e *Env) matchesRecompute(dv *engine.Derived) (bool, error) {
	full, _, err := core.FullRefresh(e.DB, e.W.View)
	if err != nil {
		return false, err
	}
	img, err := dv.Image()
	if err != nil {
		return false, err
	}
	return relalg.Equivalent(img, full), nil
}

// Close tears the environment down, folding the database's activity
// counters into the package accumulator.
func (e *Env) Close() {
	accumulate(e.DB.Stats())
	e.DB.Close()
	e.Cap.Wait()
}

// ResetDest swaps in a fresh view delta table (for back-to-back algorithm
// comparisons over the same history).
func (e *Env) ResetDest() error {
	name := fmt.Sprintf("Δ%s#%d", e.W.View.Name, e.DB.LastCSN())
	schema, err := e.W.View.Schema(e.DB)
	if err != nil {
		return err
	}
	dest, err := e.DB.CreateStandaloneDelta(name, schema)
	if err != nil {
		return err
	}
	e.Dest = dest
	e.Exec = core.NewExecutor(e.DB, e.Cap, e.W.View, dest)
	return nil
}

// DrainRolling steps a rolling propagator until its high-water mark
// reaches target.
func DrainRolling(rp *core.RollingPropagator, target relalg.CSN) error {
	for rp.HWM() < target {
		if err := rp.Step(); err != nil && !errors.Is(err, core.ErrNoProgress) {
			return err
		}
	}
	return nil
}

// DrainPropagate steps a Figure 5 propagator until its high-water mark
// reaches target.
func DrainPropagate(p *core.Propagator, target relalg.CSN) error {
	for p.HWM() < target {
		if err := p.Step(); err != nil && !errors.Is(err, core.ErrNoProgress) {
			return err
		}
	}
	return nil
}
