package rollingjoin

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
)

// UnionView is a materialized view defined as the multiset union of several
// SPJ branches with identical output arity (the paper's union extension).
// Each branch propagates independently into a shared timestamped view
// delta; the union's high-water mark is the minimum across branches, and
// point-in-time refresh works exactly as for plain views. Like every
// maintained relation its delta registers under its name, so views and
// aggregates can be defined over it.
type UnionView struct {
	maintained
}

// DefineUnionView creates and materializes a union view over the branch
// specs. Maintain options apply to every branch (Intervals is per-relation
// within each branch and must match each branch's arity if set).
func (db *DB) DefineUnionView(name string, branches []ViewSpec, opt Maintain) (*UnionView, error) {
	if len(branches) == 0 {
		return nil, errors.New("rollingjoin: union view needs at least one branch")
	}
	defs := make([]*core.ViewDef, len(branches))
	var inputs []string
	for i, spec := range branches {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("%s#%d", name, i+1)
		}
		def, err := db.resolve(spec)
		if err != nil {
			return nil, err
		}
		defs[i] = def
		for _, r := range def.Relations {
			if !slices.Contains(inputs, r) {
				inputs = append(inputs, r)
			}
		}
	}
	schema, err := defs[0].Schema(db.eng)
	if err != nil {
		return nil, err
	}
	policy := core.FixedInterval(opt.interval())
	if len(opt.Intervals) > 0 {
		policy = core.PerRelationIntervals(opt.Intervals...)
	}

	uv := &UnionView{}
	uv.maintained = maintained{name: name, inputs: inputs, handle: uv}
	err = db.define(&uv.maintained, schema, opt, func(dest *engine.DeltaTable, src capture.Source, asOf CSN) (func() error, func() CSN, *relalg.Relation, error) {
		inner, err := core.NewUnionView(db.eng, src, dest, asOf, policy, defs...)
		if err != nil {
			return nil, nil, nil, err
		}
		// Every branch materializes at the one stable instant, so the
		// union's image starts where its branch propagators do.
		img := relalg.NewRelation(schema)
		for _, def := range defs {
			rel, err := core.MaterializeAt(db.eng, def, asOf)
			if err != nil {
				return nil, nil, nil, err
			}
			img = relalg.Union(img, rel)
		}
		return inner.Step, inner.HWM, img, nil
	})
	if err != nil {
		return nil, err
	}
	return uv, nil
}

// Union returns a previously defined union view.
func (db *DB) Union(name string) (*UnionView, bool) { return lookup[*UnionView](db, name) }
