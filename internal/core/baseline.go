package core

import (
	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/relalg"
)

// This file implements the synchronous baselines of Section 3.1, against
// which rolling propagation is compared:
//
//   - FullRefresh: non-incremental recomputation of the whole view.
//   - SyncPropagateEq1: Equation 1 — the view delta as the union of 2^n−1
//     propagation queries, all seeing the base tables at t_new, executed as
//     one atomic transaction (the realizable-at-t_e form, with
//     inclusion-exclusion signs).
//   - SyncPropagateEq2: Equation 2 — n propagation queries where base
//     tables left of the delta are seen at t_old and those right of it at
//     t_new. Two of the n queries are not realizable by any transaction
//     (Section 3.1), so this baseline reconstructs the required historical
//     snapshots from the delta tables.

// FullRefresh recomputes the view from a read view at the current stable
// CSN and returns its net-effect contents and that CSN. Lock-free: the
// snapshot pins the state, not table locks.
func FullRefresh(db *engine.DB, view *ViewDef) (*relalg.Relation, relalg.CSN, error) {
	snap, err := db.OpenSnapshot(relalg.NullTS)
	if err != nil {
		return nil, 0, err
	}
	asOf := snap.AsOf()
	snap.Close()
	rel, err := MaterializeAt(db, view, asOf)
	if err != nil {
		return nil, 0, err
	}
	return relalg.NetEffect(rel), asOf, nil
}

// lockAllAndPin takes S locks on every base relation of the view, then
// returns the CSN the pinned state corresponds to: with the locks held, no
// writer of these tables can commit, so the scanned state is exactly the
// committed state at that CSN. It waits until capture has processed all
// commits up to that point.
func lockAllAndPin(tx *engine.Tx, db *engine.DB, src capture.Source, view *ViewDef) (relalg.CSN, error) {
	seen := make(map[string]bool)
	for _, name := range view.Relations {
		if seen[name] {
			continue
		}
		seen[name] = true
		if err := tx.LockTableS(name); err != nil {
			return 0, err
		}
	}
	b := db.LastCSN()
	if err := src.WaitProgress(b); err != nil {
		return 0, err
	}
	return b, nil
}

// SyncPropagateEq1 computes the view delta V_{a,b} using Equation 1: one
// query per non-empty subset of positions replaced by their deltas over
// (a, b], base positions seen at t_b, with sign (−1)^{|subset|+1}. All
// 2^n−1 queries run inside a single transaction holding S locks on every
// base table — the long atomic transaction whose contention the rolling
// algorithm exists to avoid. It returns t_b and the number of queries.
func SyncPropagateEq1(db *engine.DB, src capture.Source, view *ViewDef, dest *engine.DeltaTable, a relalg.CSN) (relalg.CSN, int, error) {
	tx := db.Begin()
	b, err := lockAllAndPin(tx, db, src, view)
	if err != nil {
		tx.Abort()
		return 0, 0, err
	}
	if b <= a {
		// Nothing to propagate.
		if _, err := tx.Commit(); err != nil {
			return 0, 0, err
		}
		return a, 0, nil
	}
	n := view.N()
	queries := 0
	for mask := 1; mask < 1<<n; mask++ {
		q := AllBase(view)
		bits := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				q = q.WithDelta(i, a, b)
				bits++
			}
		}
		if bits%2 == 0 {
			q = q.Negated()
		}
		rel, err := tx.EvalQuery(q.EngineQuery())
		if err != nil {
			tx.Abort()
			return 0, 0, err
		}
		for _, row := range rel.Rows {
			tx.AppendDelta(dest, row.TS, q.Sign*row.Count, row.Tuple)
		}
		queries++
	}
	if _, err := tx.Commit(); err != nil {
		return 0, 0, err
	}
	return b, queries, nil
}

// snapshotAt reconstructs R's committed state at time t from its current
// (locked) state at time b and the delta window (t, b]: R_t = φ(R_b − Δ^R
// over (t, b]). This stands in for the pre-update snapshots that
// Equation 2's unrealizable queries require.
func snapshotAt(tx *engine.Tx, db *engine.DB, table string, t, b relalg.CSN) (*relalg.Relation, error) {
	cur, err := tx.Scan(table, nil)
	if err != nil {
		return nil, err
	}
	d, err := db.Delta(table)
	if err != nil {
		return nil, err
	}
	win := d.Window(t, b)
	return relalg.NetEffect(relalg.Union(cur, relalg.Negate(win))), nil
}

// SyncPropagateEq2 computes V_{a,b} using Equation 2's n queries: query i
// replaces position i with Δ^i over (a, b], sees positions left of i at
// t_a (via reconstructed snapshots) and positions right of i at t_b. It
// returns t_b and the number of queries (always n).
//
// Unlike Equation 1 and the compensation-based algorithms, Equation 2's
// result is only net-correct over the full interval (a, b]: with a single
// non-overlapping query per position there is no min-timestamp cancellation,
// so a result row's timestamp is its delta position's commit time rather
// than the change's true effective time. It is therefore a delta table but
// not a timed delta table — one more reason the paper treats Equation 2 as
// a structural starting point rather than an algorithm to deploy.
func SyncPropagateEq2(db *engine.DB, src capture.Source, view *ViewDef, dest *engine.DeltaTable, a relalg.CSN) (relalg.CSN, int, error) {
	tx := db.Begin()
	b, err := lockAllAndPin(tx, db, src, view)
	if err != nil {
		tx.Abort()
		return 0, 0, err
	}
	if b <= a {
		if _, err := tx.Commit(); err != nil {
			return 0, 0, err
		}
		return a, 0, nil
	}
	n := view.N()
	// Reconstruct the t_a snapshots once.
	snaps := make([]*relalg.Relation, n)
	for i := 0; i < n; i++ {
		s, err := snapshotAt(tx, db, view.Relations[i], a, b)
		if err != nil {
			tx.Abort()
			return 0, 0, err
		}
		snaps[i] = s
	}
	for i := 0; i < n; i++ {
		eq := AllBase(view).WithDelta(i, a, b).EngineQuery()
		for j := 0; j < i; j++ {
			eq.Inputs[j] = engine.Input{Kind: engine.InputRelation, Rel: snaps[j]}
		}
		rel, err := tx.EvalQuery(eq)
		if err != nil {
			tx.Abort()
			return 0, 0, err
		}
		for _, row := range rel.Rows {
			tx.AppendDelta(dest, row.TS, row.Count, row.Tuple)
		}
	}
	if _, err := tx.Commit(); err != nil {
		return 0, 0, err
	}
	return b, n, nil
}
