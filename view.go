package rollingjoin

import (
	"repro/internal/core"
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

	def     *core.ViewDef
	exec    *core.Executor
	rolling *core.RollingPropagator // nil for AlgorithmStepwise
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
