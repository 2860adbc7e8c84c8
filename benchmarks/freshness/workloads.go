package main

import (
	"context"
	"fmt"
	"time"

	rollingjoin "repro"
)

// shape names a schema family; it decides what the generator emits and
// what the node defines.
type shape int

const (
	shapeOrders  shape = iota // users ⋈ orders
	shapeStar                 // fact ⋈ dim1 ⋈ dim2 ⋈ dim3
	shapeCascade              // fact ⋈ dim → enriched → {rollup, top}
)

// observe names where the load generator watches for a commit's effect.
type observe int

const (
	// observeFeed subscribes to GET /v1/deltas of the observed view and
	// takes the first timed-delta row carrying a commit's CSN (Def. 4.2)
	// as the moment that commit became visible.
	observeFeed observe = iota
	// observeRead repeatedly materializes the observed view as of the
	// newest acknowledged CSN with wait=true; the response is the
	// visibility event.
	observeRead
)

const (
	cascadeRegions = 50
	cascadeTiers   = 20 // top keeps dim2 rows of tier 0: a twentieth of enriched, about 500 rows
)

// workload is one traffic mix. Rates and counts are constants chosen once
// on the seed commit (README, "How the rates were chosen"); they are never
// derived at run time.
type workload struct {
	Name string
	Why  string

	Shape shape
	// Dims is the row count of every dimension-like table (users, dimN,
	// dim, dim2); Facts that of the fact-like table (orders, fact).
	Dims, Facts int
	// Deletable is how many initial fact rows the stream may delete.
	Deletable     int
	RowsPerCommit int

	// Node options; everything not named here keeps its default.
	Sync       bool // SyncOnCommit: fsync inside every commit
	Partitions int
	Fold       bool // FoldDeltas
	Follower   bool // run a follower node and observe it

	View    string // the observed view
	Observe observe

	Conns int     // load-issuing connections, one goroutine each
	Rate  float64 // mean commits/s of the open-loop phases
	Burst burst
	// CapacityCommits is the closed-loop capacity phase's fixed count at
	// the standard run length; shorter runs scale it down.
	CapacityCommits int
}

var workloads = []*workload{
	{
		Name:  "oltp-durable",
		Why:   "single-row inserts with fsync on every commit from two committers: the log and its publish barrier do most of the work, propagation almost none",
		Shape: shapeOrders, Dims: 10000, Facts: 50000, RowsPerCommit: 1,
		Sync: true, View: "user_orders", Observe: observeFeed,
		Conns: 2, Rate: 700, CapacityCommits: 5000,
	},
	{
		Name:  "star-fanout",
		Why:   "Zipf-skewed 4-way star join with dimension-row replaces fanning out over fact rows: propagation queries, heavy/light slices and apply do most of the work, the log almost none",
		Shape: shapeStar, Dims: 1000, Facts: 20000, Deletable: 4000, RowsPerCommit: 1,
		Partitions: 2, View: "star", Observe: observeFeed,
		Conns: 2, Rate: 350, CapacityCommits: 2700,
	},
	{
		Name:  "cascade-read",
		Why:   "views over views, an aggregate and background folding while a reader materializes the top view as of each new commit: the same layers used for reads beside writes",
		Shape: shapeCascade, Dims: 1000, Facts: 10000, RowsPerCommit: 2,
		Fold: true, View: "top", Observe: observeRead,
		Conns: 1, Rate: 110, CapacityCommits: 1500,
	},
	{
		Name:  "replica-burst",
		Why:   "20-row commits in on/off bursts, observed on a follower fed by WAL shipping: shipping and replica replay do the extra work, and queueing between them shows",
		Shape: shapeOrders, Dims: 10000, Facts: 50000, RowsPerCommit: 20,
		Follower: true, View: "user_orders", Observe: observeFeed,
		Conns: 2, Rate: 180, Burst: burst{On: 200 * time.Millisecond, Off: 600 * time.Millisecond},
		CapacityCommits: 4500,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// interval is the propagation interval of the workload's join views.
func (w *workload) interval() rollingjoin.CSN {
	switch w.Shape {
	case shapeStar:
		return 16
	case shapeCascade:
		return 4
	default:
		return 1
	}
}

func intCol(name string) rollingjoin.Column { return rollingjoin.Col(name, rollingjoin.TypeInt) }
func strCol(name string) rollingjoin.Column { return rollingjoin.Col(name, rollingjoin.TypeString) }

func eqJoin(lt, lc, rt, rc string) rollingjoin.Join {
	return rollingjoin.Join{LeftTable: lt, LeftColumn: lc, RightTable: rt, RightColumn: rc}
}

func outCols(pairs ...string) []rollingjoin.OutCol {
	out := make([]rollingjoin.OutCol, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, rollingjoin.OutCol{Table: pairs[i], Column: pairs[i+1]})
	}
	return out
}

// The view definitions. Each is also its own oracle: /bench/verify
// evaluates the same spec (or, for views over views, its expansion over
// base tables) with db.Query and compares.
var (
	userOrdersSpec = rollingjoin.ViewSpec{
		Name:   "user_orders",
		Tables: []string{"users", "orders"},
		Joins:  []rollingjoin.Join{eqJoin("users", "uid", "orders", "ouid")},
		Output: outCols("users", "uname", "orders", "oid", "orders", "amount"),
	}
	starSpec = rollingjoin.ViewSpec{
		Name:   "star",
		Tables: []string{"fact", "dim1", "dim2", "dim3"},
		Joins: []rollingjoin.Join{
			eqJoin("fact", "k1", "dim1", "d1k"),
			eqJoin("fact", "k2", "dim2", "d2k"),
			eqJoin("fact", "k3", "dim3", "d3k"),
		},
		Output: outCols("fact", "fid", "fact", "qty", "dim1", "d1a", "dim2", "d2a", "dim3", "d3a"),
	}
	enrichedSpec = rollingjoin.ViewSpec{
		Name:   "enriched",
		Tables: []string{"fact", "dim"},
		Joins:  []rollingjoin.Join{eqJoin("fact", "fk", "dim", "dk")},
		Output: outCols("fact", "fid", "fact", "fk2", "fact", "amt", "dim", "region"),
	}
	topSpec = rollingjoin.ViewSpec{
		Name:   "top",
		Tables: []string{"enriched", "dim2"},
		Joins:  []rollingjoin.Join{eqJoin("enriched", "fk2", "dim2", "d2k")},
		Filters: []rollingjoin.Filter{
			{Table: "dim2", Column: "tier", Op: rollingjoin.EQ, Value: rollingjoin.Int(0)},
		},
		Output: outCols("enriched", "fid", "enriched", "amt", "enriched", "region"),
	}
	// topOracle is top expanded over base tables.
	topOracle = rollingjoin.ViewSpec{
		Tables: []string{"fact", "dim", "dim2"},
		Joins: []rollingjoin.Join{
			eqJoin("fact", "fk", "dim", "dk"),
			eqJoin("fact", "fk2", "dim2", "d2k"),
		},
		Filters: topSpec.Filters,
		Output:  outCols("fact", "fid", "fact", "amt", "dim", "region"),
	}
	// oracleSpecs maps each view to the query that recomputes it.
	oracleSpecs = map[string]rollingjoin.ViewSpec{
		"user_orders": userOrdersSpec, "star": starSpec, "enriched": enrichedSpec, "top": topOracle,
	}
	rollupSpec = rollingjoin.AggSpec{
		Name:    "rollup",
		Source:  "enriched",
		GroupBy: []string{"region"},
		Aggs: []rollingjoin.Agg{
			{Func: rollingjoin.AggCount},
			{Func: rollingjoin.AggSum, Column: "amt"},
		},
	}
)

// createSchema creates the workload's tables and indexes (every join
// column is indexed).
func (w *workload) createSchema(db *rollingjoin.DB) error {
	type table struct {
		name    string
		cols    []rollingjoin.Column
		indexes []string
	}
	var tables []table
	switch w.Shape {
	case shapeOrders:
		tables = []table{
			{"users", []rollingjoin.Column{intCol("uid"), strCol("uname")}, []string{"uid"}},
			{"orders", []rollingjoin.Column{intCol("oid"), intCol("ouid"), intCol("amount")}, []string{"ouid"}},
		}
	case shapeStar:
		tables = []table{
			{"fact", []rollingjoin.Column{intCol("fid"), intCol("k1"), intCol("k2"), intCol("k3"), intCol("qty")}, []string{"k1", "k2", "k3"}},
			{"dim1", []rollingjoin.Column{intCol("d1k"), intCol("d1a")}, []string{"d1k"}},
			{"dim2", []rollingjoin.Column{intCol("d2k"), intCol("d2a")}, []string{"d2k"}},
			{"dim3", []rollingjoin.Column{intCol("d3k"), intCol("d3a")}, []string{"d3k"}},
		}
	case shapeCascade:
		tables = []table{
			{"fact", []rollingjoin.Column{intCol("fid"), intCol("fk"), intCol("fk2"), intCol("amt")}, []string{"fk", "fk2"}},
			{"dim", []rollingjoin.Column{intCol("dk"), strCol("region")}, []string{"dk"}},
			{"dim2", []rollingjoin.Column{intCol("d2k"), intCol("tier")}, []string{"d2k"}},
		}
	}
	for _, t := range tables {
		if err := db.CreateTable(t.name, t.cols...); err != nil {
			return err
		}
		for _, c := range t.indexes {
			if err := db.CreateIndex(t.name, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// maintainedRel is what the harness needs of any maintained relation, join
// view or aggregate alike.
type maintainedRel interface {
	Name() string
	HWM() rollingjoin.CSN
	PropagateStep() error
	Refresh() (rollingjoin.CSN, error)
	WaitForHWMContext(ctx context.Context, target rollingjoin.CSN) error
}

// relations is the set of maintained relations a node defines.
type relations struct {
	views []*rollingjoin.View
	aggs  []*rollingjoin.AggregateView
	all   []maintainedRel // views then aggregates: upstream first
}

// defineViews defines the workload's maintained relations. manual leaves
// them without background jobs, for the traced run's own driver loop.
func (w *workload) defineViews(db *rollingjoin.DB, manual bool) (*relations, error) {
	opt := rollingjoin.Maintain{Interval: w.interval(), AutoRefresh: !manual, Manual: manual}
	var specs []rollingjoin.ViewSpec
	switch w.Shape {
	case shapeOrders:
		specs = []rollingjoin.ViewSpec{userOrdersSpec}
	case shapeStar:
		specs = []rollingjoin.ViewSpec{starSpec}
	case shapeCascade:
		specs = []rollingjoin.ViewSpec{enrichedSpec, topSpec}
	}
	rels := &relations{}
	for _, s := range specs {
		v, err := db.DefineView(s, opt)
		if err != nil {
			return nil, fmt.Errorf("define %s: %w", s.Name, err)
		}
		rels.views = append(rels.views, v)
		rels.all = append(rels.all, v)
	}
	if w.Shape == shapeCascade {
		a, err := db.DefineAggregate(rollupSpec, opt)
		if err != nil {
			return nil, fmt.Errorf("define rollup: %w", err)
		}
		rels.aggs = append(rels.aggs, a)
		rels.all = append(rels.all, a)
	}
	return rels, nil
}
