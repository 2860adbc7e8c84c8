package rollingjoin

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/sched"
)

// UnionView is a materialized view defined as the multiset union of several
// SPJ branches with identical output arity (the paper's union extension).
// Each branch propagates independently into a shared timestamped view
// delta; the union's high-water mark is the minimum across branches, and
// point-in-time refresh works exactly as for plain views. Like View it is
// a thin handle over jobs on the database's maintenance scheduler.
type UnionView struct {
	maintained

	inner   *core.UnionView
	derived *engine.Derived // unregistered: nothing downstream reads a union
	applier *core.Applier
}

// DefineUnionView creates and materializes a union view over the branch
// specs. Maintain options apply to every branch (Intervals is per-relation
// within each branch and must match each branch's arity if set).
func (db *DB) DefineUnionView(name string, branches []ViewSpec, opt Maintain) (*UnionView, error) {
	if len(branches) == 0 {
		return nil, errors.New("rollingjoin: union view needs at least one branch")
	}
	db.ensureCapture()
	defs := make([]*core.ViewDef, len(branches))
	for i, spec := range branches {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("%s#%d", name, i+1)
		}
		def, err := db.resolve(spec)
		if err != nil {
			return nil, err
		}
		defs[i] = def
	}
	interval := opt.Interval
	if interval <= 0 {
		interval = 16
	}
	var policy core.IntervalPolicy
	if len(opt.Intervals) > 0 {
		policy = core.PerRelationIntervals(opt.Intervals...)
	} else {
		policy = core.FixedInterval(interval)
	}

	// The union view starts empty at time 0 and replays the full captured
	// history: every branch propagates from the beginning, so the first
	// Refresh brings the view up to date regardless of pre-existing data.
	// (Define union views before bulk loads, or prune with care: unlike
	// DefineView there is no initial materialization shortcut, keeping all
	// branches on one consistent time axis.)
	inner, err := core.NewUnionView(db.eng, db.src, name, 0, policy, defs...)
	if err != nil {
		return nil, err
	}
	dv := engine.NewDerived(inner.Dest(), inner.HWM)
	uv := &UnionView{inner: inner, derived: dv, applier: core.NewApplier(dv)}
	uv.maintained = maintained{db: db, hwm: inner.HWM}
	uv.prop = db.sched.Register("prop:"+name, inner.Step, sched.Options{
		HWM:      inner.HWM,
		Classify: classifyMaintenance,
		Backlog: func(limit int) int {
			return inner.Dest().PendingAfter(dv.MatTime(), limit)
		},
		MaxBacklog:   opt.MaxBacklog,
		OnProgress:   uv.notifyDeps,
		WakeOnNotify: true,
	})
	if opt.AutoRefresh {
		uv.apply = db.sched.Register("apply:"+name, applyStep(uv.applier), sched.Options{
			Classify:   classifyMaintenance,
			OnProgress: uv.applied,
		})
	}
	db.mu.Lock()
	db.unions = append(db.unions, uv)
	db.mu.Unlock()
	if !opt.Manual {
		uv.StartPropagation()
	}
	return uv, nil
}

// Name returns the union view's name.
func (uv *UnionView) Name() string { return uv.inner.Name }

// HWM returns the union high-water mark (minimum across branches).
func (uv *UnionView) HWM() CSN { return uv.inner.HWM() }

// MatTime returns the commit the materialized tuples reflect.
func (uv *UnionView) MatTime() CSN { return uv.derived.MatTime() }

// Cardinality returns the number of tuples with multiplicity.
func (uv *UnionView) Cardinality() int64 { return image(uv.derived).Cardinality() }

// Rows returns the materialized tuples, sorted (multiplicity expanded).
func (uv *UnionView) Rows() []Tuple { return expand(image(uv.derived)) }

// Refresh rolls the union view to its high-water mark.
func (uv *UnionView) Refresh() (CSN, error) {
	t, err := uv.applier.RollToHWM()
	uv.applied()
	return t, err
}

// RefreshTo rolls the union view to an exact commit.
func (uv *UnionView) RefreshTo(t CSN) error {
	err := uv.applier.RollTo(t)
	uv.applied()
	return err
}

// Relation exposes the materialized contents for experiments and the SQL
// layer.
func (uv *UnionView) Relation() *relalg.Relation { return image(uv.derived) }
