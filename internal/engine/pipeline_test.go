package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// pipelineDB builds a database with three (k, v) base tables of varying
// sizes, populated deltas, and an index on t1.k — enough surface for the
// planner to exercise table scans, delta-window scans, hash joins (both
// build sides), index-nested-loop probes, residuals, and projections.
func pipelineDB(t *testing.T, r *rand.Rand, withIndex bool) *DB {
	t.Helper()
	db := testDB(t)
	kv := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	sizes := []int{40, 25, 12}
	for i, size := range sizes {
		name := fmt.Sprintf("t%d", i+1)
		if _, err := db.CreateTable(name, kv); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateDelta(name); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for j := 0; j < size; j++ {
			row := tuple.Tuple{tuple.Int(int64(r.Intn(8))), tuple.Int(int64(j))}
			mustExec(t, tx, tx.Insert(name, row))
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		d, _ := db.Delta(name)
		for j := 0; j < 15; j++ {
			count := int64(1)
			if r.Intn(4) == 0 {
				count = -1
			}
			d.Append(relalg.CSN(j+1), count,
				tuple.Tuple{tuple.Int(int64(r.Intn(8))), tuple.Int(int64(100 + j))})
		}
	}
	if withIndex {
		if _, err := db.CreateIndex("t1", "k"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randomQuery builds a random 2–3 way SPJ propagation-style query: one
// delta position with a random window, the rest base tables, equi-join
// conditions on k, an occasional pushdown or residual predicate, and an
// occasional projection.
func randomQuery(r *rand.Rand, nInputs int) *Query {
	q := &Query{}
	deltaPos := r.Intn(nInputs)
	for i := 0; i < nInputs; i++ {
		name := fmt.Sprintf("t%d", i+1)
		in := Input{Kind: InputBase, Table: name}
		if i == deltaPos {
			lo := relalg.CSN(r.Intn(8))
			hi := lo + relalg.CSN(r.Intn(8))
			in = Input{Kind: InputDelta, Table: name, Lo: lo, Hi: hi}
		}
		if r.Intn(3) == 0 {
			in.Pred = relalg.ColConst{Col: 0, Op: relalg.OpLE, Val: tuple.Int(int64(r.Intn(8)))}
		}
		q.Inputs = append(q.Inputs, in)
	}
	for i := 1; i < nInputs; i++ {
		q.Conds = append(q.Conds, JoinCond{
			A: ColRef{Input: i - 1, Col: 0},
			B: ColRef{Input: i, Col: 0},
		})
	}
	if r.Intn(3) == 0 {
		q.Residual = relalg.ColCol{ColA: 1, Op: relalg.OpNE, ColB: 2*nInputs - 1}
	}
	if r.Intn(3) == 0 {
		q.Project = []ColRef{{Input: deltaPos, Col: 0}, {Input: deltaPos, Col: 1}}
	}
	return q
}

// identicalRelations asserts the two relations hold the same multiset of
// (tuple, count, timestamp) rows — stricter than relalg.Equivalent, which
// consolidates counts and nulls timestamps.
func identicalRelations(t *testing.T, label string, got, want *relalg.Relation) {
	t.Helper()
	canon := func(rel *relalg.Relation) []relalg.Row {
		rows := append([]relalg.Row(nil), rel.Rows...)
		sort.Slice(rows, func(i, j int) bool {
			if c := rows[i].Tuple.Compare(rows[j].Tuple); c != 0 {
				return c < 0
			}
			if rows[i].Count != rows[j].Count {
				return rows[i].Count < rows[j].Count
			}
			return rows[i].TS < rows[j].TS
		})
		return rows
	}
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("%s: row count %d != %d\npipeline: %s\nmaterialize: %s", label, len(g), len(w), got, want)
	}
	for i := range g {
		if !g[i].Tuple.Equal(w[i].Tuple) || g[i].Count != w[i].Count || g[i].TS != w[i].TS {
			t.Fatalf("%s: row %d: pipeline %v != materialize %v", label, i, g[i], w[i])
		}
	}
	if got.Schema.Arity() != want.Schema.Arity() {
		t.Fatalf("%s: schema arity %d != %d", label, got.Schema.Arity(), want.Schema.Arity())
	}
}

// TestEvalQueryMatchesMaterializeExec quick-checks the planner: every
// operator-tree plan must produce exactly the rows of the old materializing
// executor, across randomized queries, with and without an index available.
func TestEvalQueryMatchesMaterializeExec(t *testing.T) {
	for _, withIndex := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		db := pipelineDB(t, r, withIndex)
		for trial := 0; trial < 120; trial++ {
			q := randomQuery(r, 2+r.Intn(2))
			label := fmt.Sprintf("index=%v trial=%d q=%s", withIndex, trial, q)

			tx := db.Begin()
			got, err := tx.EvalQuery(q)
			if err != nil {
				tx.Abort()
				t.Fatalf("%s: EvalQuery: %v", label, err)
			}
			tx.Commit()

			tx = db.Begin()
			want, err := tx.materializeExec(q)
			if err != nil {
				tx.Abort()
				t.Fatalf("%s: materializeExec: %v", label, err)
			}
			tx.Commit()

			identicalRelations(t, label, got, want)
		}
	}
}

// TestIndexProbeVsHashJoinAgreement runs the same delta ⋈ base query on
// two databases that differ only in whether the base column is indexed, so
// the planner takes the index-nested-loop path on one and the streaming
// hash-join path on the other. Results must be identical, and the indexed
// plan must actually have probed.
func TestIndexProbeVsHashJoinAgreement(t *testing.T) {
	run := func(withIndex bool) (*relalg.Relation, Stats) {
		r := rand.New(rand.NewSource(11))
		db := pipelineDB(t, r, withIndex)
		q := &Query{
			Inputs: []Input{
				{Kind: InputDelta, Table: "t2", Lo: 0, Hi: 10},
				{Kind: InputBase, Table: "t1"},
			},
			Conds: []JoinCond{{A: ColRef{Input: 0, Col: 0}, B: ColRef{Input: 1, Col: 0}}},
		}
		tx := db.Begin()
		rel, err := tx.EvalQuery(q)
		if err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		tx.Commit()
		return rel, db.Stats()
	}
	indexed, indexedStats := run(true)
	hashed, hashedStats := run(false)
	identicalRelations(t, "index vs hash", indexed, hashed)
	if indexedStats.IndexProbes == 0 {
		t.Fatal("indexed plan did not use index probes")
	}
	if hashedStats.IndexProbes != 0 {
		t.Fatal("unindexed plan reported index probes")
	}
}

// TestEmptyDeltaWindowScansNothing verifies the pipeline short-circuits
// the probe side of a join whose build side is an empty delta window: the
// base table is never scanned (visible through the scanned-rows
// accounting).
func TestEmptyDeltaWindowScansNothing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := pipelineDB(t, r, false)
	q := &Query{
		Inputs: []Input{
			{Kind: InputDelta, Table: "t3", Lo: 100, Hi: 100}, // empty window
			{Kind: InputBase, Table: "t1"},
		},
		Conds: []JoinCond{{A: ColRef{Input: 0, Col: 0}, B: ColRef{Input: 1, Col: 0}}},
	}
	before := db.Stats().RowsScanned
	tx := db.Begin()
	rel, err := tx.EvalQuery(q)
	if err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	tx.Commit()
	if rel.Len() != 0 {
		t.Fatalf("empty window join returned %d rows", rel.Len())
	}
	if scanned := db.Stats().RowsScanned - before; scanned != 0 {
		t.Fatalf("pipeline scanned %d rows for an identically empty join", scanned)
	}
}
