// Package core implements the paper's contribution: asynchronous
// incremental view maintenance by rolling join propagation.
//
// It provides the ComputeDelta recursive-compensation procedure (Figure 4),
// the continuous Propagate process (Figure 5), the RollingPropagate process
// with per-relation propagation intervals (Figure 10), the apply driver
// performing point-in-time refresh, and the synchronous baselines of
// Section 3.1 (Equation 1 with 2^n−1 queries and Equation 2 with n
// queries) plus full recomputation.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// ViewDef defines a select-project-join view V = π(σ(R^1 ⋈ ... ⋈ R^n)).
type ViewDef struct {
	// Name identifies the view; its timed delta table registers under the
	// same name, which is what lets other views read this view as a
	// relation (the cascade contract).
	Name string
	// Relations are the relation names R^1..R^n in join order: base tables
	// or other maintained views (registered derived relations).
	Relations []string
	// Conds are the equi-join conditions between relation columns.
	Conds []engine.JoinCond
	// Residual is an optional selection over the concatenated schema.
	Residual relalg.Predicate
	// Project optionally projects onto these columns; nil keeps all.
	Project []engine.ColRef
}

// N returns the number of base relations.
func (v *ViewDef) N() int { return len(v.Relations) }

// Validate checks the definition against the database catalog: relations
// exist, every relation has a registered delta table, and column references
// are in range.
func (v *ViewDef) Validate(db *engine.DB) error { return v.validate(db, true) }

// ValidateQuery checks the definition for one-shot evaluation: like
// Validate but without requiring delta tables (ad-hoc SELECTs do not need
// maintenance).
func (v *ViewDef) ValidateQuery(db *engine.DB) error { return v.validate(db, false) }

func (v *ViewDef) validate(db *engine.DB, requireDeltas bool) error {
	if len(v.Relations) == 0 {
		return fmt.Errorf("core: view %q has no relations", v.Name)
	}
	arities := make([]int, len(v.Relations))
	for i, name := range v.Relations {
		s, err := RelationSchema(db, name)
		if err != nil {
			return fmt.Errorf("core: view %q: %w", v.Name, err)
		}
		if requireDeltas && !db.HasDelta(name) {
			return fmt.Errorf("core: view %q: relation %q has no delta table", v.Name, name)
		}
		arities[i] = s.Arity()
	}
	check := func(r engine.ColRef) error {
		if r.Input < 0 || r.Input >= len(v.Relations) {
			return fmt.Errorf("core: view %q: column ref input %d out of range", v.Name, r.Input)
		}
		if r.Col < 0 || r.Col >= arities[r.Input] {
			return fmt.Errorf("core: view %q: column %d out of range for %s", v.Name, r.Col, v.Relations[r.Input])
		}
		return nil
	}
	for _, c := range v.Conds {
		if err := check(c.A); err != nil {
			return err
		}
		if err := check(c.B); err != nil {
			return err
		}
	}
	for _, p := range v.Project {
		if err := check(p); err != nil {
			return err
		}
	}
	return nil
}

// RelationSchema resolves a relation name against the catalog: a base
// table's schema, or a registered derived relation's (maintained view read
// as a relation).
func RelationSchema(db *engine.DB, name string) (*tuple.Schema, error) {
	if t, err := db.Table(name); err == nil {
		return t.Schema(), nil
	}
	dv, err := db.Derived(name)
	if err != nil {
		return nil, err
	}
	return dv.Schema(), nil
}

// Schema computes the view's output schema.
func (v *ViewDef) Schema(db *engine.DB) (*tuple.Schema, error) {
	var concat *tuple.Schema
	offsets := make([]int, len(v.Relations))
	pos := 0
	for i, name := range v.Relations {
		s, err := RelationSchema(db, name)
		if err != nil {
			return nil, err
		}
		offsets[i] = pos
		pos += s.Arity()
		if concat == nil {
			concat = s
		} else {
			concat = tuple.ConcatSchemas(concat, s, fmt.Sprintf("r%d_", i+1))
		}
	}
	if v.Project == nil {
		return concat, nil
	}
	idx := make([]int, len(v.Project))
	for i, ref := range v.Project {
		idx[i] = offsets[ref.Input] + ref.Col
	}
	return concat.Project(idx, nil), nil
}

// Position describes what one relation slot of a propagation query reads:
// the base table (seen at the query's commit time) or a delta window.
type Position struct {
	// Delta selects the delta-table form R^i_{Lo,Hi}.
	Delta  bool
	Lo, Hi relalg.CSN
	// Slice optionally restricts a delta position to one hash-partition
	// slice of its window. The engine extends the slice to co-partitioned
	// base positions; compensation queries derived from a sliced query
	// inherit the slice, so the whole subtree computes exactly the slice's
	// share of the step.
	Slice *engine.PartSpec
}

// PropQuery is a propagation query Q^V: the view's shape with some
// positions replaced by delta windows (Section 2). Sign is +1 for forward
// contributions and −1 for compensations (the paper's −Q notation).
type PropQuery struct {
	View *ViewDef
	Pos  []Position
	Sign int64
}

// AllBase returns the query with every position reading the base table —
// the view definition itself, Q = V.
func AllBase(v *ViewDef) *PropQuery {
	return &PropQuery{View: v, Pos: make([]Position, v.N()), Sign: +1}
}

// WithDelta returns a copy of q with position i replaced by the delta
// window (lo, hi].
func (q *PropQuery) WithDelta(i int, lo, hi relalg.CSN) *PropQuery {
	return q.WithDeltaSlice(i, lo, hi, nil)
}

// WithDeltaSlice is WithDelta restricted to one partition slice of the
// introduced window. Other positions keep their slices, so a compensation
// query introduced under a sliced step stays within the slice.
func (q *PropQuery) WithDeltaSlice(i int, lo, hi relalg.CSN, slice *engine.PartSpec) *PropQuery {
	pos := make([]Position, len(q.Pos))
	copy(pos, q.Pos)
	pos[i] = Position{Delta: true, Lo: lo, Hi: hi, Slice: slice}
	return &PropQuery{View: q.View, Pos: pos, Sign: q.Sign}
}

// Negated returns the query with its sign flipped (−Q).
func (q *PropQuery) Negated() *PropQuery {
	return &PropQuery{View: q.View, Pos: q.Pos, Sign: -q.Sign}
}

// HasBase reports whether any position still reads a base table.
func (q *PropQuery) HasBase() bool {
	for _, p := range q.Pos {
		if !p.Delta {
			return true
		}
	}
	return false
}

// MaxDeltaHi returns the largest delta-window upper bound in the query:
// the capture progress required before the query may execute.
func (q *PropQuery) MaxDeltaHi() relalg.CSN {
	var hi relalg.CSN
	for _, p := range q.Pos {
		if p.Delta && p.Hi > hi {
			hi = p.Hi
		}
	}
	return hi
}

// EngineQuery lowers the propagation query to the engine's executable form.
func (q *PropQuery) EngineQuery() *engine.Query {
	inputs := make([]engine.Input, len(q.Pos))
	for i, p := range q.Pos {
		if p.Delta {
			inputs[i] = engine.Input{Kind: engine.InputDelta, Table: q.View.Relations[i], Lo: p.Lo, Hi: p.Hi, Part: p.Slice}
		} else {
			inputs[i] = engine.Input{Kind: engine.InputBase, Table: q.View.Relations[i]}
		}
	}
	return &engine.Query{
		Inputs:   inputs,
		Conds:    q.View.Conds,
		Residual: q.View.Residual,
		Project:  q.View.Project,
	}
}

// String renders the query in the paper's notation, with a leading minus
// for negated (compensation) queries.
func (q *PropQuery) String() string {
	s := ""
	if q.Sign < 0 {
		s = "−"
	}
	for i, p := range q.Pos {
		if i > 0 {
			s += " ⋈ "
		}
		if p.Delta {
			s += fmt.Sprintf("Δ%s(%d,%d]", q.View.Relations[i], p.Lo, p.Hi)
			if p.Slice != nil {
				s += fmt.Sprintf("[%d/%d]", p.Slice.Part, p.Slice.N)
			}
		} else {
			s += q.View.Relations[i]
		}
	}
	return s
}

// Realizable reports whether the query result with the given vector of base
// observation times could be produced by a serializable transaction
// executing at time tx (Section 2's realizability definition): every base
// position must be seen exactly at tx, and every delta window must be
// closed by tx. Entries of tau for delta positions are ignored.
func (q *PropQuery) Realizable(tau []relalg.CSN, tx relalg.CSN) bool {
	for i, p := range q.Pos {
		if p.Delta {
			if p.Hi > tx {
				return false
			}
		} else if tau[i] != tx {
			return false
		}
	}
	return true
}
