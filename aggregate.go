package rollingjoin

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
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

	agg *core.AggView
}

// DefineAggregate materializes the aggregate, wires its propagation and
// delta stream, and (unless Manual) starts maintenance in the
// background. Maintain.Algorithm, Interval, and Intervals are ignored:
// an aggregate's step always folds the source delta up to the source's
// current completeness bound.
func (db *DB) DefineAggregate(spec AggSpec, opt Maintain) (*AggregateView, error) {
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
	upDelta, err := db.eng.Delta(spec.Source)
	if err != nil {
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

	av := &AggregateView{}
	av.maintained = maintained{name: spec.Name, inputs: []string{spec.Source}, handle: av}
	err = db.define(&av.maintained, out, opt, func(dest *engine.DeltaTable, src capture.Source, asOf CSN) (func() error, func() CSN, *relalg.Relation, error) {
		// Seed the group state from the source's contents at asOf. The
		// source's completeness bound is capture progress for a base
		// table, min(capture, upstream HWM) — i.e. the upstream HWM — for
		// a maintained relation.
		srcRel, err := core.MaterializeAt(db.eng, &core.ViewDef{Name: spec.Name, Relations: []string{spec.Source}}, asOf)
		if err != nil {
			return nil, nil, nil, err
		}
		av.agg = core.NewAggView(def, srcSchema, out, upDelta, src.Progress, dest)
		rel, err := av.agg.Seed(srcRel, asOf)
		return av.agg.Step, av.agg.HWM, rel, err
	})
	if err != nil {
		return nil, err
	}
	return av, nil
}

// Aggregate returns a previously defined aggregate view.
func (db *DB) Aggregate(name string) (*AggregateView, bool) {
	return lookup[*AggregateView](db, name)
}

// Source returns the relation the aggregate summarizes.
func (av *AggregateView) Source() string { return av.inputs[0] }

// Columns returns the output column names.
func (av *AggregateView) Columns() []string { return av.derived.Schema().Names() }

// Groups returns the number of materialized groups.
func (av *AggregateView) Groups() int { return image(av.derived).Len() }

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
