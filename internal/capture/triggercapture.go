package capture

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/relalg"
)

// TriggerCapture implements the trigger-based capture alternative: it is an
// engine.TriggerSink whose OnCommit runs inside the writer's commit critical
// section, appending delta rows synchronously. This gives a perfectly
// up-to-date watermark but expands every writer's update footprint — the
// cost the paper calls out (and benchmark E7 measures).
//
// Unlike a naive per-statement trigger, the engine invokes the sink at
// commit time with the CSN already assigned, sidestepping the paper's
// observation that a statement-time trigger cannot know the serialization
// order; the price is that all capture work serializes on the commit mutex.
type TriggerCapture struct {
	db    *engine.DB
	uow   *UnitOfWork
	track *progressTracker

	rowsCaptured    atomic.Int64
	commitsCaptured atomic.Int64
}

// NewTriggerCapture creates the sink and installs it on the database.
func NewTriggerCapture(db *engine.DB) *TriggerCapture {
	c := &TriggerCapture{db: db, uow: NewUnitOfWork(), track: newProgressTracker()}
	db.SetTriggerSink(c)
	return c
}

// OnCommit implements engine.TriggerSink.
func (c *TriggerCapture) OnCommit(writes []engine.Write, csn relalg.CSN, wall time.Time) {
	for _, w := range writes {
		if !c.db.HasDelta(w.Table) {
			continue
		}
		d, err := c.db.Delta(w.Table)
		if err != nil {
			continue
		}
		d.Append(csn, w.Count, w.Row)
		c.rowsCaptured.Add(1)
	}
	c.uow.add(UOWEntry{CSN: csn, Wall: wall})
	c.commitsCaptured.Add(1)
	c.track.set(csn)
}

// Progress implements Source. Commits without writes do not pass through
// the sink, so the watermark also follows the transaction manager's last
// CSN: everything at or below it is captured because capture is synchronous.
func (c *TriggerCapture) Progress() relalg.CSN {
	last := c.db.TM().LastCSN()
	if p := c.track.get(); p > last {
		return p
	}
	return last
}

// WaitProgress implements Source. Trigger capture is synchronous, so this
// only waits for the CSN to be assigned at all. A commit with no recorded
// writes skips the sink, so the wait polls the combined watermark rather
// than blocking on sink notifications alone.
func (c *TriggerCapture) WaitProgress(csn relalg.CSN) error {
	return c.WaitProgressContext(context.Background(), csn)
}

// WaitProgressContext is WaitProgress with cancellation.
func (c *TriggerCapture) WaitProgressContext(ctx context.Context, csn relalg.CSN) error {
	for {
		if c.Progress() >= csn {
			return nil
		}
		if c.track.isStopped() {
			return ErrStopped
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// OnProgress registers fn to run after every captured commit — the
// event-driven wakeup hook for the maintenance scheduler. fn runs inside
// the writer's commit critical section and must not block.
func (c *TriggerCapture) OnProgress(fn func(relalg.CSN)) { c.track.subscribe(fn) }

// UOW returns the unit-of-work table.
func (c *TriggerCapture) UOW() *UnitOfWork { return c.uow }

// RowsCaptured returns the number of delta rows appended.
func (c *TriggerCapture) RowsCaptured() int64 { return c.rowsCaptured.Load() }

// CommitsCaptured returns the number of commits observed.
func (c *TriggerCapture) CommitsCaptured() int64 { return c.commitsCaptured.Load() }

// Stop uninstalls the sink and wakes waiters.
func (c *TriggerCapture) Stop() {
	c.db.SetTriggerSink(nil)
	c.track.stop()
}
