// Package workload generates the synthetic update streams the experiments
// run against. The paper's motivating scenario (Section 3.4) is a star
// schema whose central fact table is updated frequently while the
// surrounding dimension tables change rarely; StarSchema reproduces that
// skew with configurable per-table rates. Uniform n-way join schemas cover
// the symmetric case.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// Zipf draws values in [0, n) with a Zipfian distribution of exponent s,
// deterministically from the supplied source. It is a small stdlib-only
// implementation using inverse-CDF sampling over precomputed weights.
type Zipf struct {
	cdf []float64
	r   *rand.Rand
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s (s == 0 is
// uniform).
func NewZipf(r *rand.Rand, n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next draws the next sample.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TableSpec describes one base table of a workload.
type TableSpec struct {
	Name string
	// InitialRows seeds the table before the experiment starts.
	InitialRows int
	// UpdateWeight is the relative probability that an update transaction
	// targets this table.
	UpdateWeight float64
	// KeyDomain is the number of distinct join-key values.
	KeyDomain int
	// InsertFraction is the probability an update is an insert (the rest
	// are deletes). Values above 0.5 grow the table over time.
	InsertFraction float64
	// Skew, when positive, draws join keys from a Zipfian distribution
	// with this exponent instead of uniformly — a few hot keys absorb most
	// of the traffic.
	// Zero keeps the exact uniform draw sequence of earlier revisions.
	Skew float64
}

// Workload is a schema plus its update mix and the view defined over it.
type Workload struct {
	Tables []TableSpec
	View   *core.ViewDef
}

// schema returns the (k, v) schema shared by workload tables.
func schema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
}

// Chain builds a symmetric n-way chain-join workload: n tables joined
// pairwise on k, equal update weights.
func Chain(n, initialRows, keyDomain int) *Workload {
	w := &Workload{}
	view := &core.ViewDef{Name: fmt.Sprintf("chain%d", n)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i+1)
		w.Tables = append(w.Tables, TableSpec{
			Name:           name,
			InitialRows:    initialRows,
			UpdateWeight:   1,
			KeyDomain:      keyDomain,
			InsertFraction: 0.5,
		})
		view.Relations = append(view.Relations, name)
		if i > 0 {
			view.Conds = append(view.Conds, engine.JoinCond{
				A: engine.ColRef{Input: i - 1, Col: 0},
				B: engine.ColRef{Input: i, Col: 0},
			})
		}
	}
	w.View = view
	return w
}

// StarSchema builds the paper's motivating workload: a fact table joined to
// dims dimension tables, with the fact table receiving factWeight times the
// update traffic of each dimension.
func StarSchema(dims, factRows, dimRows int, factWeight float64) *Workload {
	w := &Workload{}
	view := &core.ViewDef{Name: "star"}
	w.Tables = append(w.Tables, TableSpec{
		Name:           "fact",
		InitialRows:    factRows,
		UpdateWeight:   factWeight,
		KeyDomain:      dimRows,
		InsertFraction: 0.6,
	})
	view.Relations = append(view.Relations, "fact")
	for d := 0; d < dims; d++ {
		name := fmt.Sprintf("dim%d", d+1)
		w.Tables = append(w.Tables, TableSpec{
			Name:           name,
			InitialRows:    dimRows,
			UpdateWeight:   1,
			KeyDomain:      dimRows,
			InsertFraction: 0.5,
		})
		view.Relations = append(view.Relations, name)
		// The fact table's key joins every dimension's key. A real star
		// schema has one foreign key per dimension; a single shared key
		// column keeps the synthetic data simple while preserving the
		// fact-heavy access pattern.
		view.Conds = append(view.Conds, engine.JoinCond{
			A: engine.ColRef{Input: 0, Col: 0},
			B: engine.ColRef{Input: d + 1, Col: 0},
		})
	}
	w.View = view
	return w
}

// StarSchemaSkewed is StarSchema with Zipfian fact-table keys: a handful
// of hot keys dominate the fact table's update stream.
func StarSchemaSkewed(dims, factRows, dimRows int, factWeight, skew float64) *Workload {
	w := StarSchema(dims, factRows, dimRows, factWeight)
	w.Tables[0].Skew = skew
	return w
}

// keyPicker returns a draw function over [0, KeyDomain) honoring the
// spec's skew: Zipfian when Skew > 0, otherwise the exact r.Intn sequence
// of earlier revisions (so seeded runs without skew reproduce byte for
// byte).
func keyPicker(spec TableSpec, r *rand.Rand) func() int64 {
	if spec.Skew > 0 {
		z := NewZipf(r, spec.KeyDomain, spec.Skew)
		return func() int64 { return int64(z.Next()) }
	}
	return func() int64 { return int64(r.Intn(spec.KeyDomain)) }
}

// Setup creates the workload's tables (with delta tables) in db and loads
// the initial rows in bulk transactions.
func (w *Workload) Setup(db *engine.DB, r *rand.Rand) error {
	for _, spec := range w.Tables {
		if _, err := db.CreateTable(spec.Name, schema()); err != nil {
			return err
		}
		if _, err := db.CreateDelta(spec.Name); err != nil {
			return err
		}
	}
	for _, spec := range w.Tables {
		pick := keyPicker(spec, r)
		tx := db.Begin()
		for i := 0; i < spec.InitialRows; i++ {
			k := pick()
			if err := tx.Insert(spec.Name, tuple.Tuple{tuple.Int(k), tuple.Int(int64(i))}); err != nil {
				tx.Abort()
				return err
			}
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	return w.View.Validate(db)
}

// Driver issues update transactions against a workload.
type Driver struct {
	db      *engine.DB
	w       *Workload
	r       *rand.Rand
	weights []float64 // cumulative update weights
	pickers []func() int64
	nextVal int64

	// OpsPerTxn is the number of row operations per transaction (default 1).
	OpsPerTxn int

	// committed is atomic: monitoring goroutines (cmd/rollload's reporter)
	// read it while the drive loop increments it.
	committed atomic.Int64
}

// NewDriver creates an update driver with its own random stream.
func NewDriver(db *engine.DB, w *Workload, seed int64) *Driver {
	d := &Driver{db: db, w: w, r: rand.New(rand.NewSource(seed)), OpsPerTxn: 1}
	sum := 0.0
	for _, t := range w.Tables {
		sum += t.UpdateWeight
		d.weights = append(d.weights, sum)
		d.pickers = append(d.pickers, keyPicker(t, d.r))
	}
	return d
}

// Committed returns the number of committed update transactions.
func (d *Driver) Committed() int64 { return d.committed.Load() }

// pickTable selects a table according to the update weights.
func (d *Driver) pickTable() (TableSpec, int) {
	u := d.r.Float64() * d.weights[len(d.weights)-1]
	for i, c := range d.weights {
		if u <= c {
			return d.w.Tables[i], i
		}
	}
	return d.w.Tables[len(d.w.Tables)-1], len(d.w.Tables) - 1
}

// Step runs one update transaction and returns its commit CSN.
func (d *Driver) Step() (relalg.CSN, error) {
	for {
		tx := d.db.Begin()
		ok := true
		for op := 0; op < d.OpsPerTxn; op++ {
			spec, ti := d.pickTable()
			k := d.pickers[ti]()
			var err error
			if d.r.Float64() < spec.InsertFraction {
				d.nextVal++
				err = tx.Insert(spec.Name, tuple.Tuple{tuple.Int(k), tuple.Int(d.nextVal)})
			} else {
				_, err = tx.DeleteWhere(spec.Name, relalg.ColConst{Col: 0, Op: relalg.OpEQ, Val: tuple.Int(k)}, 1)
			}
			if err != nil {
				tx.Abort()
				ok = false
				break // deadlock victim or similar: retry whole txn
			}
		}
		if !ok {
			continue
		}
		csn, err := tx.Commit()
		if err != nil {
			return 0, err
		}
		d.committed.Add(1)
		return csn, nil
	}
}

// Run issues count update transactions and returns the last commit CSN.
func (d *Driver) Run(count int) (relalg.CSN, error) {
	var last relalg.CSN
	for i := 0; i < count; i++ {
		csn, err := d.Step()
		if err != nil {
			return 0, err
		}
		last = csn
	}
	return last, nil
}
