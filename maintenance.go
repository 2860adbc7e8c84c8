package rollingjoin

import (
	"context"
	"errors"
	"sync"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/sched"
)

// classifyMaintenance is the error policy shared by every maintenance
// job: capture lag is transient (wait for the next notification), a
// stopped capture source halts the job cleanly, and anything else is a
// genuine failure retried with capped exponential backoff before
// fail-stopping.
func classifyMaintenance(err error) sched.Outcome {
	switch {
	case err == nil:
		return sched.Progress
	case errors.Is(err, core.ErrNoProgress):
		return sched.Idle
	case errors.Is(err, capture.ErrStopped):
		return sched.Halt
	default:
		return sched.Fail
	}
}

// maintained is the one maintenance lifecycle in the package: a thin
// handle over jobs on the DB's scheduler. View, UnionView, and
// AggregateView embed or reference it instead of carrying their own
// goroutine loops — start/stop are idempotent and safe under concurrent churn, Stop drains
// the in-flight step, and waits are event-driven (no sleep polling).
type maintained struct {
	db    *DB
	prop  *sched.Job // propagation: advances the view delta HWM
	apply *sched.Job // application (AutoRefresh only): rolls the MV
	hwm   func() CSN

	// src is the capture source this view's propagation gates on. For a
	// view over base tables it is the database's capture process; for a
	// cascaded view (reading other maintained views) it is a composite
	// ViewSource whose progress is min(capture, upstream HWMs). Nil falls
	// back to the database source.
	src capture.Source
	// ups are the maintained upstream views this view reads as relations
	// (cascade edges), recorded for lifecycle bookkeeping.
	ups []*maintained

	depMu sync.Mutex
	deps  []*sched.Job // downstream propagation / summary jobs, kicked on progress
}

// notifyDeps chains downstream jobs on propagation progress: the apply
// job (new delta rows to fold in), any summary auto-refreshers, and the
// fold job, whose floor follows the HWM.
func (m *maintained) notifyDeps() {
	if m.apply != nil {
		m.apply.Kick()
	}
	m.db.kickFold()
	m.depMu.Lock()
	deps := m.deps
	m.depMu.Unlock()
	for _, d := range deps {
		d.Kick()
	}
}

// applied runs after the image rolls forward: it un-parks propagation
// and wakes the fold job, since only client commits notify capture.
func (m *maintained) applied() {
	m.prop.Kick()
	m.db.kickFold()
}

// addDep registers a dependent job to kick on propagation progress.
// This is the scheduler-level cascade chain: a downstream view's
// propagation job registered here wakes whenever this view's high-water
// mark advances, so deltas flow level to level without polling.
func (m *maintained) addDep(j *sched.Job) {
	m.depMu.Lock()
	m.deps = append(m.deps, j)
	m.depMu.Unlock()
}

// removeDep detaches a dependent job (a downstream view being dropped).
func (m *maintained) removeDep(j *sched.Job) {
	m.depMu.Lock()
	for i, d := range m.deps {
		if d == j {
			m.deps = append(m.deps[:i], m.deps[i+1:]...)
			break
		}
	}
	m.depMu.Unlock()
}

// unregisterJobs removes every job from the scheduler (DropView).
func (m *maintained) unregisterJobs() {
	m.depMu.Lock()
	deps := m.deps
	m.deps = nil
	m.depMu.Unlock()
	for _, d := range deps {
		m.db.sched.Unregister(d)
	}
	if m.apply != nil {
		m.db.sched.Unregister(m.apply)
	}
	m.db.sched.Unregister(m.prop)
}

// StartPropagation schedules the view's maintenance jobs; it is
// idempotent and safe to call concurrently with StopPropagation.
func (m *maintained) StartPropagation() {
	m.prop.Start()
	if m.apply != nil {
		m.apply.Start()
	}
}

// StopPropagation suspends maintenance (the paper's "either process can
// be suspended during periods of high system load"): it takes the jobs
// out of scheduling, drains any in-flight step before returning, and can
// be restarted from the same position. It returns the terminal error if
// a job fail-stopped.
func (m *maintained) StopPropagation() error {
	err := m.prop.Stop()
	if m.apply != nil {
		if aerr := m.apply.Stop(); err == nil {
			err = aerr
		}
	}
	return err
}

// Maintaining reports whether background maintenance is currently
// scheduled for this view.
func (m *maintained) Maintaining() bool { return m.prop.Running() }

// Err returns the terminal error of a fail-stopped maintenance job (nil
// while maintenance is healthy). A job fail-stops after its step errors
// through the scheduler's whole retry/backoff budget; StartPropagation
// clears the state and resumes from the last good position.
func (m *maintained) Err() error {
	if err := m.prop.Err(); err != nil {
		return err
	}
	if m.apply != nil {
		return m.apply.Err()
	}
	return nil
}

// WaitForHWM blocks until the high-water mark reaches target.
// Propagation must be running (or driven concurrently via
// PropagateStep/CatchUp). The wait is event-driven — the goroutine
// sleeps until a propagation step makes progress.
func (m *maintained) WaitForHWM(target CSN) {
	_ = m.WaitForHWMContext(context.Background(), target)
}

// WaitForHWMContext is WaitForHWM with cancellation: it returns the
// context's error on timeout/cancel, or the propagation job's terminal
// error if maintenance fail-stopped while waiting.
func (m *maintained) WaitForHWMContext(ctx context.Context, target CSN) error {
	m.prop.Demand(target)
	return m.prop.Await(ctx, func() bool { return m.hwm() >= target })
}

// CatchUp advances propagation until the high-water mark reaches target.
// With background maintenance running it waits on scheduler
// notifications; otherwise it drives propagation steps synchronously,
// blocking on capture progress (not spinning) when the delta tables have
// nothing new. Refresh after CatchUp(db.LastCSN()) is "refresh the view
// to now".
func (m *maintained) CatchUp(target CSN) error {
	return m.CatchUpContext(context.Background(), target)
}

// CatchUpContext is CatchUp with cancellation.
func (m *maintained) CatchUpContext(ctx context.Context, target CSN) error {
	for m.hwm() < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		if m.prop.Running() {
			// Demand overrides backpressure parking so a waiter is never
			// stranded behind an un-refreshed apply backlog.
			m.prop.Demand(target)
			if err := m.prop.Await(ctx, func() bool { return m.hwm() >= target }); err != nil {
				return err
			}
			continue
		}
		if err := m.prop.StepNow(); err != nil {
			if errors.Is(err, core.ErrNoProgress) {
				// The HWM sits at the last interval boundary; capture
				// reaching one past it is exactly the event that makes the
				// next step productive.
				if werr := m.waitCapture(ctx, m.hwm()+1); werr != nil {
					return werr
				}
				continue
			}
			return err
		}
	}
	return nil
}

// source returns the capture source this view gates on: the composite
// cascade source when set, else the database's capture process.
func (m *maintained) source() capture.Source {
	if m.src != nil {
		return m.src
	}
	return m.db.Source()
}

// waitCapture blocks until capture progress reaches csn, honoring ctx
// when the source supports context-aware waits. For a cascaded view the
// source is a ViewSource, so this also drives lagging upstream views'
// propagation forward.
func (m *maintained) waitCapture(ctx context.Context, csn CSN) error {
	src := m.source()
	if w, ok := src.(interface {
		WaitProgressContext(context.Context, relalg.CSN) error
	}); ok {
		return w.WaitProgressContext(ctx, csn)
	}
	return src.WaitProgress(csn)
}

// PropagateStep runs one propagation step synchronously (Manual mode).
// It returns core.ErrNoProgress when capture has nothing new. Steps are
// serialized with background maintenance, so manual and scheduled
// driving compose.
func (m *maintained) PropagateStep() error { return m.prop.StepNow() }

// applyStep adapts an Applier to a scheduler job: it reports
// ErrNoProgress (→ Idle) when the materialization time is already at the
// high-water mark, so the job sleeps until the next propagation advance.
func applyStep(a *core.Applier) func() error {
	return func() error {
		before := a.MatTime()
		t, err := a.RollToHWM()
		if err != nil {
			return err
		}
		if t <= before {
			return core.ErrNoProgress
		}
		return nil
	}
}
