package rollingjoin

import (
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// Re-exported apply-side errors.
var (
	// ErrBeyondHWM is returned when a refresh target lies past the view
	// delta high-water mark.
	ErrBeyondHWM = core.ErrBeyondHWM
	// ErrBackward is returned when a refresh target precedes the view's
	// materialized state.
	ErrBackward = core.ErrBackward
	// ErrNoProgress is returned by PropagateStep when capture has nothing
	// new: the high-water mark already sits at the last minted boundary.
	ErrNoProgress = core.ErrNoProgress
)

// View is a materialized select-project-join view under asynchronous
// incremental maintenance. Propagation (computing the timestamped view
// delta) and application (rolling the materialized tuples forward) are
// fully decoupled: both run as jobs on the database's maintenance
// scheduler — propagation woken by capture notifications, application
// either on demand (Refresh / RefreshTo) or scheduled (Maintain.AutoRefresh).
// The View itself is a thin handle over those jobs.
type View struct {
	maintained

	def  *core.ViewDef
	exec *core.Executor
	dest *engine.DeltaTable

	// derived is the view's one stored state: its image at MatTime plus
	// its delta stream, registered as a relation downstream views scan
	// like a base table.
	derived *engine.Derived

	applier *core.Applier
	rolling *core.RollingPropagator // nil for AlgorithmStepwise
}

// Name returns the view name.
func (v *View) Name() string { return v.def.Name }

// HWM returns the view delta high-water mark: the latest CSN the view can
// currently be rolled to.
func (v *View) HWM() CSN { return v.hwm() }

// MatTime returns the CSN whose database state the materialized tuples
// currently reflect.
func (v *View) MatTime() CSN { return v.derived.MatTime() }

// Rows returns the materialized tuples in net-effect form, sorted; a
// tuple with multiplicity m appears m times.
func (v *View) Rows() []Tuple { return expand(image(v.derived)) }

// Cardinality returns the number of tuples (with multiplicity).
func (v *View) Cardinality() int64 { return image(v.derived).Cardinality() }

// MaterializeAt computes the view's contents as of an arbitrary CSN at or
// below the high-water mark — the derived image plus the delta window up
// to asOf — without moving the materialized tuples (no Refresh). It
// returns ErrBeyondHWM when asOf exceeds the HWM. This is the server's
// point-in-time read: any number of clients can materialize at different
// instants concurrently with ongoing maintenance.
func (v *View) MaterializeAt(asOf CSN) ([]Tuple, error) {
	rel, err := v.derived.ScanAsOf(asOf, nil)
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

// EachDelta streams the view's timed delta rows with CSN in (lo, hi] in
// timestamp order: fn receives each delta's commit CSN, signed
// multiplicity, and decoded row. The view-delta subscription endpoint
// drives it window by window as the high-water mark advances — the view's
// change stream, exactly as minted by propagation. fn must not retain the
// row slice and must not call back into the view's delta table.
func (v *View) EachDelta(lo, hi CSN, fn func(ts CSN, count int64, row Tuple) error) error {
	return v.dest.WindowEach(lo, hi, func(ts relalg.CSN, count int64, encRow []byte) error {
		row, _, err := tuple.DecodeRow(encRow)
		if err != nil {
			return err
		}
		return fn(ts, count, Tuple(row))
	})
}

// Relation exposes the materialized contents for experiments.
func (v *View) Relation() *relalg.Relation { return image(v.derived) }

// Refresh rolls the materialized view to the current high-water mark and
// returns the CSN reached.
func (v *View) Refresh() (CSN, error) {
	t, err := v.applier.RollToHWM()
	v.applied()
	return t, err
}

// RefreshTo performs point-in-time refresh: it rolls the view to exactly
// the given CSN, which must lie between the current materialization time
// and the high-water mark.
func (v *View) RefreshTo(t CSN) error {
	err := v.applier.RollTo(t)
	v.applied()
	return err
}

// RefreshToTime rolls the view to the last transaction committed at or
// before the given wall-clock instant ("refresh the view to its 5:00 pm
// state").
func (v *View) RefreshToTime(t time.Time) (CSN, error) {
	csn, err := v.db.CSNAt(t)
	if err != nil {
		return 0, err
	}
	if csn < v.MatTime() {
		// The view is already past that instant.
		return 0, core.ErrBackward
	}
	return csn, v.RefreshTo(csn)
}

// PruneApplied discards view delta rows that can no longer be needed.
// The safe floor is the materialization time, further lowered to the
// smallest high-water mark of any maintained view defined over this one:
// a downstream view reads this view's delta both as its propagation
// input (windows above its HWM) and through the image, rolled back to
// states at or above that HWM.
func (v *View) PruneApplied() int {
	return v.db.pruneView(v.derived, maxFoldCSN)
}

// Stats reports maintenance activity for the view.
type ViewStats struct {
	ForwardQueries      int64
	CompensationQueries int64
	SkippedEmptyWindows int64
	DeltaRowsProduced   int64
	DeltaRowsPending    int
	// DeltaRowsUnapplied counts view delta rows between the materialization
	// time and the high-water mark: the apply backlog driving the
	// scheduler's backpressure signal.
	DeltaRowsUnapplied int
	RowsApplied        int64
	Refreshes          int64
	HWM                CSN
	MatTime            CSN
	// MaintenanceErr is non-nil once a maintenance job has fail-stopped:
	// its step kept returning an error through the scheduler's full
	// retry/backoff budget. Start/StartPropagation clears it.
	MaintenanceErr error
}

// Stats returns a snapshot of the view's maintenance counters.
func (v *View) Stats() ViewStats {
	es := v.exec.Stats()
	return ViewStats{
		ForwardQueries:      es.ForwardQueries,
		CompensationQueries: es.CompensationQueries,
		SkippedEmptyWindows: es.SkippedEmpty,
		DeltaRowsProduced:   es.RowsProduced,
		DeltaRowsPending:    v.dest.Len(),
		DeltaRowsUnapplied:  v.dest.PendingAfter(v.MatTime(), 0),
		RowsApplied:         v.applier.RowsApplied(),
		Refreshes:           v.applier.Refreshes(),
		HWM:                 v.hwm(),
		MatTime:             v.MatTime(),
		MaintenanceErr:      v.Err(),
	}
}

// TFwd exposes the per-relation forward progress (rolling algorithm only;
// nil otherwise). Used by the demo tool to visualize Figure 9.
func (v *View) TFwd() []CSN {
	if v.rolling == nil {
		return nil
	}
	return v.rolling.TFwd()
}
