package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/relalg"
)

// Apply-side errors.
var (
	// ErrBeyondHWM is returned when a refresh target lies past the view
	// delta high-water mark: the delta for that window is not yet complete.
	ErrBeyondHWM = errors.New("core: refresh target beyond the view delta high-water mark")
	// ErrBackward is returned when a refresh target precedes the view's
	// current materialization time.
	ErrBackward = errors.New("core: refresh target precedes the materialized state")
	// ErrNegativeCount indicates a delta drove some view tuple's
	// multiplicity negative — an invariant violation that means the delta
	// was not a correct timed delta table.
	ErrNegativeCount = engine.ErrNegativeCount
)

// MaterializeAt computes the view's contents as of asOf: the relation that
// seeds its image. No table locks are taken: writers commit freely while
// the initial state is computed. Cascaded view definitions pick a stable
// CSN, catch every upstream view's high-water mark up to it (so derived
// inputs are complete at that time), and materialize all levels at the
// same instant.
func MaterializeAt(db *engine.DB, view *ViewDef, asOf relalg.CSN) (*relalg.Relation, error) {
	q := AllBase(view).EngineQuery()
	q.AsOf = asOf
	tx := db.Begin()
	rel, err := tx.EvalQuery(q)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return rel, nil
}

// Applier is the apply driver of Figure 11: it rolls a view's image
// forward by applying timestamped view delta windows, independently of the
// propagation process. Roll operations are serialized internally, so the
// scheduler's apply job and on-demand Refresh calls from any number of
// goroutines compose without double-applying a window.
type Applier struct {
	dv *engine.Derived

	mu           sync.Mutex // serializes roll operations
	rowsApplied  atomic.Int64
	refreshCount atomic.Int64
}

// NewApplier creates an apply driver over a view's image; the image's
// high-water mark bounds every roll.
func NewApplier(dv *engine.Derived) *Applier { return &Applier{dv: dv} }

// MatTime returns the time the image reflects.
func (a *Applier) MatTime() relalg.CSN { return a.dv.MatTime() }

// RowsApplied returns the cumulative number of delta rows applied.
func (a *Applier) RowsApplied() int64 { return a.rowsApplied.Load() }

// Refreshes returns the number of completed refresh operations.
func (a *Applier) Refreshes() int64 { return a.refreshCount.Load() }

// RollTo performs point-in-time refresh: it advances the image from its
// current materialization time to target, which may be any CSN up to the
// high-water mark ("roll the materialized view forward to any time point
// up to the view delta's high-water mark").
func (a *Applier) RollTo(target relalg.CSN) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rollLocked(target)
}

func (a *Applier) rollLocked(target relalg.CSN) error {
	if err := fault.Inject(fault.PointApply); err != nil {
		return err
	}
	cur := a.dv.MatTime()
	if target < cur {
		return fmt.Errorf("%w: at %d, asked for %d", ErrBackward, cur, target)
	}
	if target == cur {
		return nil
	}
	if hwm := a.dv.HWM(); target > hwm {
		return fmt.Errorf("%w: hwm %d, asked for %d", ErrBeyondHWM, hwm, target)
	}
	n, err := a.dv.ApplyThrough(target)
	if err != nil {
		return err
	}
	a.rowsApplied.Add(int64(n))
	a.refreshCount.Add(1)
	return nil
}

// RollToHWM refreshes the view to the current high-water mark and returns
// the time reached. The watermark is read and applied under one lock, so
// concurrent callers cannot race a stale read into ErrBackward.
func (a *Applier) RollToHWM() (relalg.CSN, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	hwm := a.dv.HWM()
	if cur := a.dv.MatTime(); hwm <= cur {
		return cur, nil
	}
	return hwm, a.rollLocked(hwm)
}
