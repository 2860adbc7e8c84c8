package rollingjoin

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/sched"
	"repro/internal/tuple"
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

// maintained is the one record per maintained relation — join view,
// union view or incremental aggregate — kept in the DB's one registry and
// created by the one define path (define). It holds the relation's stored
// state (image plus timed delta), its propagation and apply jobs on the
// DB's scheduler, and its high-water mark; View, UnionView and
// AggregateView embed it and add only what is specific to their kind.
// Start/stop are idempotent and safe under concurrent churn, Stop drains
// the in-flight step, and waits are event-driven (no sleep polling).
type maintained struct {
	db   *DB
	name string
	// inputs names the relations propagation reads: base tables or other
	// maintained relations. A relation's downstreams are the registry
	// entries whose inputs name it.
	inputs []string
	// handle is the public value embedding this record (*View,
	// *UnionView or *AggregateView), returned by the typed lookups.
	handle any

	// dest is the timed delta table, registered under the relation's
	// name; derived is the relation's one stored state (its image at
	// MatTime plus dest), readable by downstream relations like a base
	// table.
	dest    *engine.DeltaTable
	derived *engine.Derived
	applier *core.Applier

	prop  *sched.Job // propagation: advances the view delta HWM
	apply *sched.Job // application (AutoRefresh only): rolls the MV
	hwm   func() CSN

	// src is the capture source this relation's propagation gates on. Over
	// base tables it is the database's capture process; over other
	// maintained relations it is a composite ViewSource whose progress is
	// min(capture, upstream HWMs).
	src capture.Source
	// ups are the maintained relations among the inputs (cascade edges).
	ups []*maintained

	depMu sync.Mutex
	deps  []*sched.Job // downstream propagation jobs, kicked on progress
}

// reads reports whether rel is one of the relation's inputs.
func (m *maintained) reads(rel string) bool { return slices.Contains(m.inputs, rel) }

// stableInstant picks one stable CSN and brings every upstream's
// high-water mark up to it, so their deltas are complete there and a
// definition can materialize all of its inputs at exactly that time.
func (db *DB) stableInstant(ups []*maintained) (CSN, error) {
	snap, err := db.eng.OpenSnapshot(relalg.NullTS)
	if err != nil {
		return 0, err
	}
	asOf := snap.AsOf()
	snap.Close()
	for _, u := range ups {
		if err := u.CatchUp(asOf); err != nil {
			return 0, err
		}
	}
	return asOf, nil
}

// buildFunc wires a relation's propagation over the delta table the define
// path created: given the capture source and the stable instant asOf, it
// returns the propagation step, the high-water mark, and the relation's
// image at asOf.
type buildFunc func(dest *engine.DeltaTable, src capture.Source, asOf CSN) (step func() error, hwm func() CSN, image *relalg.Relation, err error)

// define is the one define path for every maintained relation; m carries
// the name, inputs and handle. It creates the delta table under the
// relation's plain name (the view-as-relation contract: downstream
// propagation and db.Delta(name) resolve it without special cases), gates
// propagation on capture and upstream progress, lets build wire the step
// and image at one stable instant, registers the image as a derived
// relation and the prop (plus, under AutoRefresh, apply) job, enters the
// registry, chains the upstream cascade edges and, unless Manual, starts
// maintenance. A failure undoes what it created.
func (db *DB) define(m *maintained, schema *tuple.Schema, opt Maintain, build buildFunc) error {
	db.ensureCapture()
	if db.maintainedRel(m.name) != nil {
		return fmt.Errorf("rollingjoin: %q already defined", m.name)
	}
	// Creating the delta claims the name: it fails for any existing base
	// table or maintained relation, so a failure here has nothing to undo.
	dest, err := db.eng.CreateStandaloneDelta(m.name, schema)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		db.eng.UnregisterDerived(m.name)
		db.eng.DropStandaloneDelta(m.name)
		return err
	}
	m.db, m.dest, m.src = db, dest, db.src
	m.ups = db.upstreamsOf(m.inputs)
	if len(m.ups) > 0 {
		vs := &capture.ViewSource{Base: db.src}
		for _, u := range m.ups {
			vs.Ups = append(vs.Ups, capture.Upstream{Name: u.name, HWM: u.hwm, CatchUp: u.CatchUpContext})
		}
		m.src = vs
	}
	asOf, err := db.stableInstant(m.ups)
	if err != nil {
		return fail(err)
	}
	step, hwm, image, err := build(dest, m.src, asOf)
	if err != nil {
		return fail(err)
	}
	dv, err := db.eng.RegisterDerived(dest, hwm)
	if err != nil {
		return fail(err)
	}
	if err := dv.SetImage(image, asOf); err != nil {
		return fail(err)
	}
	m.derived, m.applier, m.hwm = dv, core.NewApplier(dv), hwm
	m.prop = db.sched.Register("prop:"+m.name, step, sched.Options{
		HWM:      hwm,
		Classify: classifyMaintenance,
		Backlog: func(limit int) int {
			return dest.PendingAfter(dv.MatTime(), limit)
		},
		MaxBacklog:   opt.MaxBacklog,
		OnProgress:   m.notifyDeps,
		WakeOnNotify: true,
	})
	if opt.AutoRefresh {
		m.apply = db.sched.Register("apply:"+m.name, applyStep(m.applier), sched.Options{
			Classify:   classifyMaintenance,
			OnProgress: m.applied,
		})
	}
	db.mu.Lock()
	db.rels[m.name] = m
	db.mu.Unlock()

	// Chain the cascade on the scheduler: every upstream propagation
	// advance kicks this relation's propagation job, so deltas flow level
	// to level without polling.
	for _, u := range m.ups {
		u.addDep(m.prop)
	}
	if !opt.Manual {
		m.StartPropagation()
	}
	return nil
}

// notifyDeps chains downstream jobs on propagation progress: the apply
// job (new delta rows to fold in), downstream propagation jobs, and the
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

// waitCapture blocks until capture progress reaches csn, honoring ctx
// when the source supports context-aware waits. For a cascaded view the
// source is a ViewSource, so this also drives lagging upstream views'
// propagation forward.
func (m *maintained) waitCapture(ctx context.Context, csn CSN) error {
	src := m.src
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

// Name returns the relation's name.
func (m *maintained) Name() string { return m.name }

// HWM returns the delta high-water mark: the latest CSN the relation can
// currently be rolled to.
func (m *maintained) HWM() CSN { return m.hwm() }

// MatTime returns the CSN whose database state the materialized tuples
// currently reflect.
func (m *maintained) MatTime() CSN { return m.derived.MatTime() }

// Rows returns the materialized tuples in net-effect form, sorted; a
// tuple with multiplicity m appears m times.
func (m *maintained) Rows() []Tuple { return expand(image(m.derived)) }

// Cardinality returns the number of tuples (with multiplicity).
func (m *maintained) Cardinality() int64 { return image(m.derived).Cardinality() }

// Relation exposes the materialized contents for experiments and the SQL
// layer.
func (m *maintained) Relation() *relalg.Relation { return image(m.derived) }

// MaterializeAt computes the relation's contents as of an arbitrary CSN at
// or below the high-water mark — the derived image plus the delta window
// up to asOf — without moving the materialized tuples (no Refresh). It
// returns ErrBeyondHWM when asOf exceeds the HWM. This is the server's
// point-in-time read: any number of clients can materialize at different
// instants concurrently with ongoing maintenance.
func (m *maintained) MaterializeAt(asOf CSN) ([]Tuple, error) {
	rel, err := m.derived.ScanAsOf(asOf, nil)
	if err != nil {
		return nil, err
	}
	return expand(rel), nil
}

// image reads a maintained relation's image at its MatTime. An image that
// cannot be read back from cold spill (engine.ErrSpillLost) reads as
// empty here; Refresh and MaterializeAt report that error.
func image(dv *engine.Derived) *relalg.Relation {
	rel, err := dv.Image()
	if err != nil {
		return relalg.NewRelation(dv.Schema())
	}
	return rel
}

// expand lists a relation's tuples in its row order, a tuple with
// multiplicity m appearing m times.
func expand(rel *relalg.Relation) []Tuple {
	out := make([]Tuple, 0, rel.Len())
	for _, r := range rel.Rows {
		for i := int64(0); i < r.Count; i++ {
			out = append(out, Tuple(r.Tuple))
		}
	}
	return out
}

// EachDelta streams the relation's timed delta rows with CSN in (lo, hi]
// in timestamp order: fn receives each delta's commit CSN, signed
// multiplicity, and decoded row. The view-delta subscription endpoint
// drives it window by window as the high-water mark advances — the
// relation's change stream, exactly as minted by propagation. fn must not
// retain the row slice and must not call back into the delta table.
func (m *maintained) EachDelta(lo, hi CSN, fn func(ts CSN, count int64, row Tuple) error) error {
	return m.dest.WindowEach(lo, hi, func(ts relalg.CSN, count int64, encRow []byte) error {
		row, _, err := tuple.DecodeRow(encRow)
		if err != nil {
			return err
		}
		return fn(ts, count, Tuple(row))
	})
}

// Refresh rolls the materialized tuples to the current high-water mark and
// returns the CSN reached.
func (m *maintained) Refresh() (CSN, error) {
	t, err := m.applier.RollToHWM()
	m.applied()
	return t, err
}

// RefreshTo performs point-in-time refresh: it rolls the relation to
// exactly the given CSN, which must lie between the current
// materialization time and the high-water mark.
func (m *maintained) RefreshTo(t CSN) error {
	err := m.applier.RollTo(t)
	m.applied()
	return err
}

// RefreshToTime rolls the relation to the last transaction committed at or
// before the given wall-clock instant ("refresh the view to its 5:00 pm
// state").
func (m *maintained) RefreshToTime(t time.Time) (CSN, error) {
	csn, err := m.db.CSNAt(t)
	if err != nil {
		return 0, err
	}
	if csn < m.MatTime() {
		// The relation is already past that instant.
		return 0, core.ErrBackward
	}
	return csn, m.RefreshTo(csn)
}

// PruneApplied discards delta rows that can no longer be needed. The safe
// floor is the materialization time, further lowered to the smallest
// high-water mark of any maintained relation defined over this one (see
// pruneRel).
func (m *maintained) PruneApplied() int { return m.db.pruneRel(m, maxFoldCSN) }

// StartAutoRefresh starts the scheduled apply job (AutoRefresh relations
// only; no-op otherwise). Idempotent.
func (m *maintained) StartAutoRefresh() {
	if m.apply != nil {
		m.apply.Start()
	}
}

// StopAutoRefresh suspends the scheduled apply job, draining any
// in-flight roll. Idempotent.
func (m *maintained) StopAutoRefresh() error {
	if m.apply != nil {
		return m.apply.Stop()
	}
	return nil
}
