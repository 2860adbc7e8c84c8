package core

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/relalg"
)

// UnionView maintains V = V1 + V2 + ... + Vk where each branch is an SPJ
// view with the same output schema. Section 2 of the paper notes rolling
// propagation "can be extended easily to accommodate views involving
// union": because the multiset union of timed delta tables for the
// branches is a timed delta table for the union view, each branch runs its
// own rolling propagator into a shared view delta table, and the union's
// high-water mark is the minimum of the branch high-water marks.
type UnionView struct {
	Branches []*ViewDef

	props []*RollingPropagator
}

// NewUnionView validates the branches (same arity output) and wires one
// rolling propagator per branch, each starting at tInitial, into the
// shared view delta table dest.
func NewUnionView(db *engine.DB, src capture.Source, dest *engine.DeltaTable, tInitial relalg.CSN,
	interval IntervalPolicy, branches ...*ViewDef) (*UnionView, error) {
	name := dest.Base()
	if len(branches) == 0 {
		return nil, fmt.Errorf("core: union view %q needs at least one branch", name)
	}
	arity := dest.Schema().Arity()
	for _, b := range branches {
		if err := b.Validate(db); err != nil {
			return nil, err
		}
		s, err := b.Schema(db)
		if err != nil {
			return nil, err
		}
		if s.Arity() != arity {
			return nil, fmt.Errorf("core: union view %q: branch %q arity %d != %d",
				name, b.Name, s.Arity(), arity)
		}
	}
	uv := &UnionView{Branches: branches}
	for _, b := range branches {
		exec := NewExecutor(db, src, b, dest)
		uv.props = append(uv.props, NewRollingPropagator(exec, tInitial, interval))
	}
	return uv, nil
}

// HWM returns the union view's high-water mark: the minimum over branches.
func (uv *UnionView) HWM() relalg.CSN {
	hwm := uv.props[0].HWM()
	for _, p := range uv.props[1:] {
		if h := p.HWM(); h < hwm {
			hwm = h
		}
	}
	return hwm
}

// Step advances the branch with the smallest high-water mark by one rolling
// step. It returns ErrNoProgress when no branch can advance.
func (uv *UnionView) Step() error {
	best := 0
	for i, p := range uv.props {
		if p.HWM() < uv.props[best].HWM() {
			best = i
		}
	}
	return uv.props[best].Step()
}
