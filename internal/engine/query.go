package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// InputKind distinguishes the three sources a propagation-query position can
// read from.
type InputKind uint8

// The input kinds.
const (
	// InputBase reads the current committed state of a base table (R^i seen
	// at the query's commit time).
	InputBase InputKind = iota
	// InputDelta reads a timestamp window of a delta table (R^i_{lo,hi}).
	InputDelta
	// InputRelation reads a pre-materialized relation (testing and the
	// apply path).
	InputRelation
)

// Input is one position of an SPJ query: a base table, a delta window, or a
// materialized relation, with an optional pushdown predicate evaluated
// against the input's own schema.
type Input struct {
	Kind InputKind
	// Table is the base-table name (InputBase) or the delta table's base
	// name (InputDelta).
	Table string
	// Lo and Hi bound the half-open window (Lo, Hi] for InputDelta.
	Lo, Hi relalg.CSN
	// Rel is the materialized relation for InputRelation.
	Rel *relalg.Relation
	// Pred is an optional pushdown predicate over this input's schema.
	Pred relalg.Predicate
	// Part restricts the input to one hash-partition slice (nil = the
	// full input). Propagation sets it on the introduced delta position;
	// coPartition extends it to equality-connected inputs so each slice
	// job touches 1/N of the co-partitioned storage.
	Part *PartSpec
}

// String renders the input in the paper's notation.
func (in Input) String() string {
	slice := ""
	if in.Part.sliced() {
		slice = fmt.Sprintf("[%d/%d]", in.Part.Part, in.Part.N)
	}
	switch in.Kind {
	case InputBase:
		return in.Table + slice
	case InputDelta:
		return fmt.Sprintf("Δ%s(%d,%d]%s", in.Table, in.Lo, in.Hi, slice)
	default:
		return "<rel>"
	}
}

// ColRef names a column by input position and column index within that
// input's schema.
type ColRef struct {
	Input int
	Col   int
}

// JoinCond is an equi-join condition between two column references.
type JoinCond struct {
	A, B ColRef
}

// Query is a select-project-join query over a list of inputs, in the shape
// of the paper's propagation queries π(σ(Q[1] ⋈ Q[2] ⋈ ... ⋈ Q[n])).
type Query struct {
	Inputs []Input
	Conds  []JoinCond
	// Residual is an optional predicate over the concatenated schema,
	// evaluated after all joins (column positions are global offsets).
	Residual relalg.Predicate
	// Project optionally projects the result onto these columns; nil keeps
	// the full concatenation.
	Project []ColRef
	// AsOf, when nonzero, evaluates every base input against the read view
	// at that CSN instead of the current committed state: scans and index
	// probes apply snapshot visibility and take NO table locks, and the
	// query's execution time is AsOf by construction. The evaluator blocks
	// until AsOf is stable (commit-publish barrier).
	AsOf relalg.CSN
}

// String renders the query's join list in the paper's notation.
func (q *Query) String() string {
	parts := make([]string, len(q.Inputs))
	for i, in := range q.Inputs {
		parts[i] = in.String()
	}
	return strings.Join(parts, " ⋈ ")
}

// ErrNotRealizable marks queries that reference a delta window that the
// capture process has not fully populated yet.
var ErrNotRealizable = errors.New("engine: delta window not yet captured")

// arities returns the arity of each input and the global offset of each.
func (db *DB) arities(q *Query) ([]int, []int, error) {
	ar := make([]int, len(q.Inputs))
	off := make([]int, len(q.Inputs))
	pos := 0
	for i, in := range q.Inputs {
		var n int
		switch in.Kind {
		case InputBase:
			t, err := db.Table(in.Table)
			if err != nil {
				dv := db.derivedByName(in.Table)
				if dv == nil {
					return nil, nil, err
				}
				n = dv.schema.Arity()
				break
			}
			n = t.schema.Arity()
		case InputDelta:
			d, err := db.Delta(in.Table)
			if err != nil {
				return nil, nil, err
			}
			n = d.schema.Arity()
		case InputRelation:
			n = in.Rel.Schema.Arity()
		}
		ar[i] = n
		off[i] = pos
		pos += n
	}
	return ar, off, nil
}

// joinOrder picks the left-deep join order: start from a delta (or
// materialized) input when there is one — propagation queries have small
// delta sides — then greedily add inputs connected to the prefix by a join
// condition, preferring non-base inputs, falling back to a cross product
// with the lowest unchosen input.
func joinOrder(q *Query) []int {
	n := len(q.Inputs)
	order := make([]int, 0, n)
	chosen := make([]bool, n)
	pick := func(i int) { order = append(order, i); chosen[i] = true }
	start := 0
	for i, in := range q.Inputs {
		if in.Kind != InputBase {
			start = i
			break
		}
	}
	pick(start)
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			connected := false
			for _, c := range q.Conds {
				a, b := c.A.Input, c.B.Input
				if (a == i && chosen[b]) || (b == i && chosen[a]) {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			if q.Inputs[i].Kind != InputBase {
				best = i
				break
			}
			if best == -1 {
				best = i
			}
		}
		if best == -1 {
			for i := 0; i < n; i++ {
				if !chosen[i] {
					best = i
					break
				}
			}
		}
		pick(best)
	}
	return order
}

// lockBases takes table S locks on every base input, in sorted name order
// to keep the lock graph acyclic among concurrent propagation queries.
// Derived (view) inputs take no locks: their state is reconstructed from
// an immutable image plus immutable delta rows, so there is no writer to
// serialize against.
func (tx *Tx) lockBases(q *Query) error {
	var baseNames []string
	for _, in := range q.Inputs {
		if in.Kind == InputBase && !tx.db.IsDerived(in.Table) {
			baseNames = append(baseNames, in.Table)
		}
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if err := tx.LockTableS(name); err != nil {
			return err
		}
	}
	return nil
}

// buildPlan lowers q to a physical operator tree and returns it with the
// result schema. Predicates and delta-window bounds are pushed into the
// leaf scans; each join position is planned as either an index-nested-loop
// probe (single equi-join condition with an index on the joined base
// column) or a hash join whose build side is the small delta-anchored
// prefix when the other side is a streaming base scan. The arena (may be
// nil) recycles the pipeline's batches and hash tables across steps.
func (tx *Tx) buildPlan(q *Query, a *exec.Arena) (exec.Operator, *tuple.Schema, error) {
	db := tx.db
	arities, offsets, err := db.arities(q)
	if err != nil {
		return nil, nil, err
	}
	if q.AsOf == relalg.NullTS {
		if err := tx.lockBases(q); err != nil {
			return nil, nil, err
		}
	}

	// Leaf scan per input. Base-table leaves are built lazily so the join
	// step can choose index probing instead.
	leaf := func(i int) (exec.Operator, error) {
		in := q.Inputs[i]
		switch in.Kind {
		case InputDelta:
			d, err := db.Delta(in.Table)
			if err != nil {
				return nil, err
			}
			return &deltaScan{db: db, d: d, lo: in.Lo, hi: in.Hi, pred: in.Pred, spec: in.Part}, nil
		case InputRelation:
			scan := exec.NewRelationScan(in.Rel, in.Pred)
			scan.Size = db.batchSize
			return scan, nil
		default:
			t, err := db.Table(in.Table)
			if err != nil {
				if dv := db.derivedByName(in.Table); dv != nil {
					return &derivedScan{db: db, dv: dv, pred: in.Pred, asOf: q.AsOf, spec: in.Part}, nil
				}
				return nil, err
			}
			return &tableScan{db: db, t: t, pred: in.Pred, asOf: q.AsOf, spec: in.Part}, nil
		}
	}

	order := joinOrder(q)
	n := len(q.Inputs)
	placed := make([]bool, n)
	joinedOff := make([]int, n)

	cur, err := leaf(order[0])
	if err != nil {
		return nil, nil, err
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
		var joined exec.Operator
		// Index probing applies to real base tables only; a derived input
		// falls through to its streaming scan under a hash join.
		if q.Inputs[i].Kind == InputBase && len(on) == 1 {
			if t, err := db.Table(q.Inputs[i].Table); err == nil {
				if ix := t.indexOn(on[0].RightCol); ix != nil {
					pred := q.Inputs[i].Pred
					joined = &exec.IndexLoopJoin{
						Left:    cur,
						LeftCol: on[0].LeftCol,
						ProbeFn: func(v tuple.Value) []tuple.Tuple {
							db.addProbes(1)
							return t.probeAsOf(ix, v, pred, q.AsOf)
						},
						Size: db.batchSize,
						A:    a,
					}
				}
			}
		}
		if joined == nil {
			right, err := leaf(i)
			if err != nil {
				return nil, nil, err
			}
			joined = &exec.HashJoin{
				Left:  cur,
				Right: right,
				On:    on,
				// Stream an unmaterialized base scan through the probe
				// side; hash the already-materialized (delta-sized) input
				// otherwise, mirroring the build-on-the-small-side rule.
				BuildLeft: q.Inputs[i].Kind == InputBase,
				Size:      db.batchSize,
				A:         a,
			}
		}
		cur = &exec.Tap{Child: joined, OnBatch: func(rows int) { db.addJoined(int64(rows)) }}
		joinedOff[i] = joinedWidth
		joinedWidth += arities[i]
		placed[i] = true
	}

	// Restore declaration order so residuals, projection, and the output
	// schema see the documented column layout.
	cs, err := db.concatSchema(q)
	if err != nil {
		return nil, nil, err
	}
	if !inDeclarationOrder(order) {
		perm := make([]int, 0, joinedWidth)
		for i := 0; i < n; i++ {
			for c := 0; c < arities[i]; c++ {
				perm = append(perm, joinedOff[i]+c)
			}
		}
		cur = &exec.Project{Child: cur, Idx: perm}
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
		cur = &exec.Filter{Child: cur, Pred: residuals, OnFilter: db.noteFilter}
	}

	schema := cs
	if q.Project != nil {
		idx := make([]int, len(q.Project))
		for i, ref := range q.Project {
			idx[i] = offsets[ref.Input] + ref.Col
		}
		cur = &exec.Project{Child: cur, Idx: idx}
		schema = cs.Project(idx, nil)
	}
	return cur, schema, nil
}

// snapshotFor opens the read view backing an AsOf query, or returns nil
// for a current-state query (which reads under table S locks instead).
// The caller closes the snapshot after draining the plan.
func (tx *Tx) snapshotFor(q *Query) (*Snapshot, error) {
	if q.AsOf == relalg.NullTS {
		return nil, nil
	}
	return tx.db.OpenSnapshot(q.AsOf)
}

// EvalQuery evaluates q inside the transaction through the streaming
// operator pipeline: base inputs are scanned under table S locks
// (pre-acquired in sorted name order to keep the lock graph acyclic among
// propagation queries) — or, for an AsOf query, lock-free against the
// read view at q.AsOf — delta windows stream straight off their B+ trees,
// and the root materializes the result as a relation. Counts multiply and
// timestamps combine by minimum per the paper's rule.
func (tx *Tx) EvalQuery(q *Query) (*relalg.Relation, error) {
	tx.db.coPartition(q)
	snap, err := tx.snapshotFor(q)
	if err != nil {
		return nil, err
	}
	if snap != nil {
		defer snap.Close()
	}
	tx.db.addQuery()
	a := exec.NewArena()
	root, schema, err := tx.buildPlan(q, a)
	if err != nil {
		a.Release()
		return nil, err
	}
	out := relalg.NewRelation(schema)
	rows, batches, err := exec.DrainWith(root, a, tx.db.batchSize, func(b *relalg.Batch) error {
		out.Rows = b.MaterializeInto(out.Rows)
		return nil
	})
	tx.db.noteBatches(rows, batches)
	tx.db.noteArena(a)
	a.Release()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StreamQuery evaluates q and feeds every result batch to sink instead of
// materializing the result. The batch is reused between calls; the sink
// must copy any rows it keeps. It returns the result row and batch counts.
func (tx *Tx) StreamQuery(q *Query, sink func(*relalg.Batch) error) (rows, batches int64, err error) {
	tx.db.coPartition(q)
	snap, err := tx.snapshotFor(q)
	if err != nil {
		return 0, 0, err
	}
	if snap != nil {
		defer snap.Close()
	}
	tx.db.addQuery()
	a := exec.NewArena()
	root, _, err := tx.buildPlan(q, a)
	if err != nil {
		a.Release()
		return 0, 0, err
	}
	rows, batches, err = exec.DrainWith(root, a, tx.db.batchSize, sink)
	tx.db.noteBatches(rows, batches)
	tx.db.noteArena(a)
	a.Release()
	return rows, batches, err
}

// materializeExec is the pre-pipeline evaluation path: every input is
// materialized as a relation and the inputs are joined left-deep with
// hash joins built on the right side. It is the planner's reference
// implementation: the equivalence tests compare the operator pipeline
// against it. Production callers go through EvalQuery.
func (tx *Tx) materializeExec(q *Query) (*relalg.Relation, error) {
	db := tx.db
	db.coPartition(q)
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
			rel := d.WindowSpec(in.Part, in.Lo, in.Hi)
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
			rel := t.scanAsOfPart(q.Inputs[i].Pred, q.AsOf, q.Inputs[i].Part)
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

// inDeclarationOrder reports whether the join order is the identity.
func inDeclarationOrder(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}

// concatSchema builds the declaration-order concatenated schema of the
// query's inputs (duplicate names from later inputs prefixed with "r_",
// matching relalg.Join's convention).
func (db *DB) concatSchema(q *Query) (*tuple.Schema, error) {
	var cs *tuple.Schema
	for _, in := range q.Inputs {
		var s *tuple.Schema
		switch in.Kind {
		case InputBase:
			t, err := db.Table(in.Table)
			if err != nil {
				dv := db.derivedByName(in.Table)
				if dv == nil {
					return nil, err
				}
				s = dv.schema
				break
			}
			s = t.schema
		case InputDelta:
			d, err := db.Delta(in.Table)
			if err != nil {
				return nil, err
			}
			s = d.schema
		case InputRelation:
			s = in.Rel.Schema
		}
		if cs == nil {
			cs = s
		} else {
			cs = tuple.ConcatSchemas(cs, s, "r_")
		}
	}
	return cs, nil
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

// ExecutePropagation runs q as its own transaction, streaming the result
// into the destination delta table: each batch's counts are multiplied by
// sign and appended, and the transaction commits. It returns the query
// execution time t_e and the number of rows and batches appended. For a
// current-state query t_e is the commit CSN (the bases were read under S
// locks, i.e. at the committed state the commit point sees); for an AsOf
// query t_e is q.AsOf — executed time equals intended time by
// construction. This is the Execute primitive of Figures 4 and 10.
func (db *DB) ExecutePropagation(q *Query, sign int64, dest *DeltaTable) (relalg.CSN, int, int, error) {
	for _, in := range q.Inputs {
		if in.Part.sliced() {
			db.NotePartSliceJob(in.Part.Part)
			break
		}
	}
	tx := db.Begin()
	// Columnar egress: serialize each result row straight from the batch's
	// columns into the delta table's row encoding; no tuples materialize
	// between the pipeline root and storage. encBuf is reused per row
	// (AppendEncoded copies into the value buffer the B+ tree retains).
	var encBuf []byte
	rows, batches, err := tx.StreamQuery(q, func(b *relalg.Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			ts := b.TSAt(i)
			if ts == relalg.NullTS {
				return fmt.Errorf("engine: propagation query %s produced a null-timestamp row", q)
			}
			encBuf = b.EncodeRowAt(encBuf[:0], i)
			var pv tuple.Value
			if b.Arity() > dest.partCol {
				pv = b.ValueAt(i, dest.partCol)
			}
			tx.AppendDeltaEncoded(dest, ts, sign*b.CountAt(i), encBuf, pv)
		}
		return nil
	})
	if err != nil {
		tx.Abort()
		return 0, 0, 0, err
	}
	csn, err := tx.Commit()
	if err != nil {
		tx.Abort()
		return 0, 0, 0, err
	}
	if q.AsOf != relalg.NullTS {
		return q.AsOf, int(rows), int(batches), nil
	}
	return csn, int(rows), int(batches), nil
}
