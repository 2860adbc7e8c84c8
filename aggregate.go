package rollingjoin

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/sched"
)

// AggFunc identifies an aggregate function.
type AggFunc = core.AggFunc

// The aggregate functions.
const (
	AggCount = core.AggCount
	AggSum   = core.AggSum
	AggAvg   = core.AggAvg
	AggMin   = core.AggMin
	AggMax   = core.AggMax
)

// Agg requests one aggregate output column.
type Agg struct {
	Func AggFunc
	// Column is the aggregated source column (ignored for AggCount).
	Column string
	// As optionally names the output column; defaults to "count" for
	// COUNT(*) and to e.g. "sum_amt" otherwise.
	As string
}

// AggSpec declares an incremental GROUP BY aggregate over one source
// relation — a base table or another maintained view. Aggregates are
// maintained relations themselves: their group-level delta stream
// registers under their name, so further views and aggregates can be
// defined over them (fact → join view → rollup → top-level rollup).
type AggSpec struct {
	Name    string
	Source  string
	GroupBy []string
	Aggs    []Agg
}

// AggregateView is a maintained incremental aggregate. Like a join view
// it decouples propagation (folding source delta windows into group
// state and minting group-level delta rows) from application (rolling
// the materialized groups forward), supports point-in-time refresh to
// any CSN up to its high-water mark, and registers as a derived relation
// readable by downstream views.
type AggregateView struct {
	maintained

	def     *core.AggregateDef
	source  string
	agg     *core.AggView
	dest    *engine.DeltaTable
	derived *engine.Derived // the one stored state, as for View
	applier *core.Applier
}

// DefineAggregate materializes the aggregate, wires its propagation and
// delta stream, and (unless Manual) starts maintenance in the
// background. Maintain.Algorithm, Interval, and Intervals are ignored:
// an aggregate's step always folds the source delta up to the source's
// current completeness bound.
func (db *DB) DefineAggregate(spec AggSpec, opt Maintain) (*AggregateView, error) {
	db.ensureCapture()
	if spec.Name == "" {
		return nil, errors.New("rollingjoin: aggregate needs a name")
	}
	if len(spec.GroupBy) == 0 {
		return nil, fmt.Errorf("rollingjoin: aggregate %q needs at least one GROUP BY column", spec.Name)
	}
	if len(spec.Aggs) == 0 {
		return nil, fmt.Errorf("rollingjoin: aggregate %q needs at least one aggregate column", spec.Name)
	}
	srcSchema, err := core.RelationSchema(db.eng, spec.Source)
	if err != nil {
		return nil, fmt.Errorf("rollingjoin: aggregate %q: %w", spec.Name, err)
	}
	if !db.eng.HasDelta(spec.Source) {
		return nil, fmt.Errorf("rollingjoin: aggregate %q: relation %q has no delta table", spec.Name, spec.Source)
	}

	def := &core.AggregateDef{Name: spec.Name, Source: spec.Source}
	for _, n := range spec.GroupBy {
		c := srcSchema.Index(n)
		if c < 0 {
			return nil, fmt.Errorf("rollingjoin: aggregate %q: no column %q in relation %q (have %v)",
				spec.Name, n, spec.Source, srcSchema.Names())
		}
		def.GroupBy = append(def.GroupBy, c)
	}
	seen := make(map[string]bool)
	for _, a := range spec.Aggs {
		col := -1
		if a.Func != AggCount {
			if col = srcSchema.Index(a.Column); col < 0 {
				return nil, fmt.Errorf("rollingjoin: aggregate %q: no column %q in relation %q (have %v)",
					spec.Name, a.Column, spec.Source, srcSchema.Names())
			}
		}
		name := a.As
		if name == "" {
			if a.Func == AggCount {
				name = "count"
			} else {
				name = strings.ToLower(a.Func.String()) + "_" + a.Column
			}
		}
		if seen[name] {
			return nil, fmt.Errorf("rollingjoin: aggregate %q: duplicate output column %q", spec.Name, name)
		}
		seen[name] = true
		def.Aggs = append(def.Aggs, core.AggCol{Func: a.Func, Col: col, Name: name})
	}
	out, err := def.OutSchema(srcSchema)
	if err != nil {
		return nil, err
	}

	ups, upNames := db.upstreamsOf([]string{spec.Source})

	// The cascade contract, same as DefineView: the aggregate's delta
	// stream registers under its own name.
	dest, err := db.eng.CreateStandaloneDelta(spec.Name, out)
	if err != nil {
		return nil, err
	}
	cleanup := func() {
		db.eng.UnregisterDerived(spec.Name)
		db.eng.DropStandaloneDelta(spec.Name)
	}

	src := db.src
	if len(ups) > 0 {
		vs := &capture.ViewSource{Base: db.src}
		for i, u := range ups {
			vs.Ups = append(vs.Ups, capture.Upstream{Name: upNames[i], HWM: u.hwm, CatchUp: u.CatchUpContext})
		}
		src = vs
	}
	// The source's completeness bound: capture progress for a base table,
	// min(capture, upstream HWM) — i.e. the upstream HWM — for a view.
	upHWM := src.Progress

	// Initial state: pick one stable instant, bring the upstream up to
	// it, scan the source there, and seed the group state.
	snap, err := db.eng.OpenSnapshot(relalg.NullTS)
	if err != nil {
		cleanup()
		return nil, err
	}
	asOf := snap.AsOf()
	snap.Close()
	for _, u := range ups {
		if err := u.CatchUp(asOf); err != nil {
			cleanup()
			return nil, err
		}
	}
	srcDef := &core.ViewDef{Name: spec.Name, Relations: []string{spec.Source}}
	q := core.AllBase(srcDef).EngineQuery()
	q.AsOf = asOf
	tx := db.eng.Begin()
	srcRel, err := tx.EvalQuery(q)
	if err != nil {
		tx.Abort()
		cleanup()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		cleanup()
		return nil, err
	}

	upDelta, err := db.eng.Delta(spec.Source)
	if err != nil {
		cleanup()
		return nil, err
	}
	agg := core.NewAggView(def, srcSchema, out, upDelta, upHWM, dest)
	initRel, err := agg.Seed(srcRel, asOf)
	if err != nil {
		cleanup()
		return nil, err
	}
	dv, err := db.eng.RegisterDerived(dest, agg.HWM)
	if err != nil {
		cleanup()
		return nil, err
	}
	if err := dv.SetImage(initRel, asOf); err != nil {
		cleanup()
		return nil, err
	}
	av := &AggregateView{def: def, source: spec.Source, agg: agg, dest: dest, derived: dv}
	av.applier = core.NewApplier(dv)
	av.maintained = maintained{db: db, hwm: agg.HWM, src: src, ups: ups}

	av.prop = db.sched.Register("prop:"+spec.Name, agg.Step, sched.Options{
		HWM:      agg.HWM,
		Classify: classifyMaintenance,
		Backlog: func(limit int) int {
			return dest.PendingAfter(dv.MatTime(), limit)
		},
		MaxBacklog:   opt.MaxBacklog,
		OnProgress:   av.notifyDeps,
		WakeOnNotify: true,
	})
	if opt.AutoRefresh {
		av.apply = db.sched.Register("apply:"+spec.Name, applyStep(av.applier), sched.Options{
			Classify:   classifyMaintenance,
			OnProgress: av.applied,
		})
	}

	db.mu.Lock()
	if _, dup := db.aggs[spec.Name]; dup {
		db.mu.Unlock()
		av.unregisterJobs()
		cleanup()
		return nil, fmt.Errorf("rollingjoin: aggregate %q already defined", spec.Name)
	}
	db.aggs[spec.Name] = av
	for _, un := range upNames {
		if db.downs[un] == nil {
			db.downs[un] = make(map[string]bool)
		}
		db.downs[un][spec.Name] = true
	}
	db.mu.Unlock()

	for _, u := range ups {
		u.addDep(av.prop)
	}

	if !opt.Manual {
		av.StartPropagation()
	}
	return av, nil
}

// Aggregate returns a previously defined aggregate view.
func (db *DB) Aggregate(name string) (*AggregateView, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	a, ok := db.aggs[name]
	return a, ok
}

// AggregateNames returns the defined aggregate views, sorted.
func (db *DB) AggregateNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.aggs))
	for n := range db.aggs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the aggregate's name.
func (av *AggregateView) Name() string { return av.def.Name }

// Source returns the relation the aggregate summarizes.
func (av *AggregateView) Source() string { return av.source }

// HWM returns the aggregate delta high-water mark.
func (av *AggregateView) HWM() CSN { return av.hwm() }

// MatTime returns the CSN the materialized groups currently reflect.
func (av *AggregateView) MatTime() CSN { return av.derived.MatTime() }

// Rows returns the materialized group rows sorted by group key.
func (av *AggregateView) Rows() []Tuple { return expand(image(av.derived)) }

// Columns returns the output column names.
func (av *AggregateView) Columns() []string { return av.derived.Schema().Names() }

// Groups returns the number of materialized groups.
func (av *AggregateView) Groups() int { return image(av.derived).Len() }

// Relation exposes the materialized groups for experiments.
func (av *AggregateView) Relation() *relalg.Relation { return image(av.derived) }

// Refresh rolls the materialized groups to the current high-water mark.
func (av *AggregateView) Refresh() (CSN, error) {
	t, err := av.applier.RollToHWM()
	av.applied()
	return t, err
}

// RefreshTo performs point-in-time refresh to exactly the given CSN.
func (av *AggregateView) RefreshTo(t CSN) error {
	err := av.applier.RollTo(t)
	av.applied()
	return err
}

// RefreshToTime rolls the aggregate to the last commit at or before the
// given wall-clock instant.
func (av *AggregateView) RefreshToTime(t time.Time) (CSN, error) {
	csn, err := av.db.CSNAt(t)
	if err != nil {
		return 0, err
	}
	if csn < av.MatTime() {
		return 0, core.ErrBackward
	}
	return csn, av.RefreshTo(csn)
}

// StartAutoRefresh starts the scheduled apply job (AutoRefresh
// aggregates only; no-op otherwise). Idempotent.
func (av *AggregateView) StartAutoRefresh() {
	if av.apply != nil {
		av.apply.Start()
	}
}

// StopAutoRefresh suspends the scheduled apply job, draining any
// in-flight roll. Idempotent.
func (av *AggregateView) StopAutoRefresh() error {
	if av.apply != nil {
		return av.apply.Stop()
	}
	return nil
}

// PruneApplied discards aggregate delta rows that can no longer be
// needed, flooring at the smallest downstream high-water mark (see
// View.PruneApplied).
func (av *AggregateView) PruneApplied() int {
	return av.db.pruneView(av.derived, maxFoldCSN)
}

// AggStats reports maintenance activity for an aggregate view.
type AggStats struct {
	GroupCount        int
	StepsRun          int64
	SourceRowsFolded  int64
	DeltaRowsProduced int64
	DeltaRowsPending  int
	RowsApplied       int64
	Refreshes         int64
	HWM               CSN
	MatTime           CSN
	MaintenanceErr    error
}

// Stats returns a snapshot of the aggregate's maintenance counters.
func (av *AggregateView) Stats() AggStats {
	return AggStats{
		GroupCount:        av.agg.Groups(),
		StepsRun:          av.agg.Steps(),
		SourceRowsFolded:  av.agg.RowsFolded(),
		DeltaRowsProduced: av.agg.RowsEmitted(),
		DeltaRowsPending:  av.dest.Len(),
		RowsApplied:       av.applier.RowsApplied(),
		Refreshes:         av.applier.Refreshes(),
		HWM:               av.hwm(),
		MatTime:           av.MatTime(),
		MaintenanceErr:    av.Err(),
	}
}
