package engine

import (
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// The materializing evaluator below is the planner's reference for the
// operator pipeline: TestEvalQueryMatchesMaterializeExec compares the two
// on every plan shape. Nothing outside the tests runs it.

// materializeExec is the pre-pipeline evaluation path: every input is
// materialized as a relation and the inputs are joined left-deep with
// hash joins built on the right side. It is the planner's reference
// implementation: the equivalence tests compare the operator pipeline
// against it. Production callers go through EvalQuery.
func (tx *Tx) materializeExec(q *Query) (*relalg.Relation, error) {
	db := tx.db
	db.addQuery()
	arities, offsets, err := db.arities(q)
	if err != nil {
		return nil, err
	}
	snap, err := tx.snapshotFor(q)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		defer snap.Close()
	}
	if q.AsOf == relalg.NullTS {
		if err := tx.lockBases(q); err != nil {
			return nil, err
		}
	}

	// Materialize the non-base inputs; base inputs stay lazy so the join
	// step can choose between a full scan (hash join) and index probing.
	rels := make([]*relalg.Relation, len(q.Inputs))
	for i, in := range q.Inputs {
		switch in.Kind {
		case InputDelta:
			d, err := db.Delta(in.Table)
			if err != nil {
				return nil, err
			}
			rel := d.Window(in.Lo, in.Hi)
			if in.Pred != nil {
				rel = relalg.Select(rel, in.Pred)
			}
			db.addScanned(int64(rel.Len()))
			rels[i] = rel
		case InputRelation:
			rel := in.Rel
			if in.Pred != nil {
				rel = relalg.Select(rel, in.Pred)
			}
			rels[i] = rel
		}
	}
	materialize := func(i int) (*relalg.Relation, error) {
		if rels[i] != nil {
			return rels[i], nil
		}
		if dv := db.derivedByName(q.Inputs[i].Table); dv != nil {
			rel, err := dv.ScanAsOf(q.AsOf, q.Inputs[i].Pred)
			if err != nil {
				return nil, err
			}
			db.addScanned(int64(rel.Len()))
			rels[i] = rel
			return rel, nil
		}
		if q.AsOf != relalg.NullTS {
			t, err := db.Table(q.Inputs[i].Table)
			if err != nil {
				return nil, err
			}
			rel := t.scanAsOf(q.Inputs[i].Pred, q.AsOf)
			db.addScanned(int64(rel.Len()))
			rels[i] = rel
			return rel, nil
		}
		rel, err := tx.Scan(q.Inputs[i].Table, q.Inputs[i].Pred)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
		return rel, nil
	}

	order := joinOrder(q)
	n := len(q.Inputs)

	// placed[i] reports whether input i is already in the joined prefix;
	// joinedOff[i] is its column offset within the joined tuple.
	placed := make([]bool, n)
	joinedOff := make([]int, n)

	result, err := materialize(order[0])
	if err != nil {
		return nil, err
	}
	placed[order[0]] = true
	joinedOff[order[0]] = 0
	joinedWidth := arities[order[0]]
	used := make([]bool, len(q.Conds))
	for step := 1; step < n; step++ {
		i := order[step]
		var on []relalg.JoinOn
		for ci, c := range q.Conds {
			if used[ci] {
				continue
			}
			a, b := c.A, c.B
			if a.Input == i && placed[b.Input] {
				a, b = b, a
			}
			if b.Input == i && placed[a.Input] {
				on = append(on, relalg.JoinOn{
					LeftCol:  joinedOff[a.Input] + a.Col,
					RightCol: b.Col,
				})
				used[ci] = true
			}
		}
		if rels[i] == nil && len(on) == 1 {
			// Index probing applies to real base tables only; derived
			// inputs materialize through ScanAsOf below.
			if t, err := db.Table(q.Inputs[i].Table); err == nil {
				if ix := t.indexOn(on[0].RightCol); ix != nil {
					result = indexJoin(db, result, t, ix, on[0].LeftCol, q.Inputs[i].Pred, q.AsOf)
					db.addJoined(int64(result.Len()))
					joinedOff[i] = joinedWidth
					joinedWidth += arities[i]
					placed[i] = true
					continue
				}
			}
		}
		rel, err := materialize(i)
		if err != nil {
			return nil, err
		}
		result = relalg.Join(result, rel, on)
		db.addJoined(int64(result.Len()))
		joinedOff[i] = joinedWidth
		joinedWidth += arities[i]
		placed[i] = true
	}

	// Restore declaration order so residuals, projection, and the output
	// schema see the documented column layout.
	if !inDeclarationOrder(order) {
		perm := make([]int, 0, joinedWidth)
		for i := 0; i < n; i++ {
			for c := 0; c < arities[i]; c++ {
				perm = append(perm, joinedOff[i]+c)
			}
		}
		cs, err := db.concatSchema(q)
		if err != nil {
			return nil, err
		}
		restored := relalg.NewRelation(cs)
		restored.Rows = make([]relalg.Row, len(result.Rows))
		for ri, row := range result.Rows {
			restored.Rows[ri] = relalg.Row{Tuple: row.Tuple.Project(perm), Count: row.Count, TS: row.TS}
		}
		result = restored
	}

	// Residual conditions (including any join conditions not consumed by
	// the left-deep pipeline, e.g. both sides in the same input).
	var residuals relalg.And
	for ci, c := range q.Conds {
		if used[ci] {
			continue
		}
		residuals = append(residuals, relalg.ColCol{
			ColA: offsets[c.A.Input] + c.A.Col,
			Op:   relalg.OpEQ,
			ColB: offsets[c.B.Input] + c.B.Col,
		})
	}
	if q.Residual != nil {
		residuals = append(residuals, q.Residual)
	}
	if len(residuals) > 0 {
		result = relalg.Select(result, residuals)
	}

	if q.Project != nil {
		idx := make([]int, len(q.Project))
		for i, ref := range q.Project {
			idx[i] = offsets[ref.Input] + ref.Col
		}
		result = relalg.Project(result, idx, nil)
	}
	return result, nil
}

// indexJoin joins the accumulated left relation against a base table via
// index probes on a single equi-join column (the materializing fallback's
// counterpart of exec.IndexLoopJoin). Base rows have count 1 and null
// timestamps, so the combined row keeps the left row's count and timestamp
// (product and min rules respectively).
func indexJoin(db *DB, left *relalg.Relation, t *Table, ix *Index, leftCol int, pred relalg.Predicate, asOf relalg.CSN) *relalg.Relation {
	out := relalg.NewRelation(tuple.ConcatSchemas(left.Schema, t.schema, "r_"))
	for _, lr := range left.Rows {
		db.addProbes(1)
		for _, m := range t.probeAsOf(ix, lr.Tuple[leftCol], pred, asOf) {
			out.Rows = append(out.Rows, relalg.Row{
				Tuple: tuple.Concat(lr.Tuple, m),
				Count: lr.Count,
				TS:    lr.TS,
			})
		}
	}
	return out
}
