package rollingjoin

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/sched"
	"repro/internal/tuple"
	"repro/internal/txn"
	"repro/internal/wal"
)

// CaptureMode selects how base-table changes reach the delta tables.
type CaptureMode uint8

// The capture modes.
const (
	// CaptureLog tails the write-ahead log asynchronously (the paper's
	// DPropR architecture; the default).
	CaptureLog CaptureMode = iota
	// CaptureTrigger appends delta rows synchronously inside each writer's
	// commit — lower capture latency, but every update transaction pays
	// the expanded footprint.
	CaptureTrigger
)

// Options configures a database instance.
type Options struct {
	// WALPath, when non-empty, backs the write-ahead log with a file;
	// otherwise the log lives in memory.
	WALPath string
	// Device, when non-nil, backs the log with the given device directly
	// and takes precedence over WALPath. Crash tests use this to interpose
	// a fault-injecting device.
	Device wal.Device
	// SyncOnCommit fsyncs the log inside every commit (file-backed only).
	SyncOnCommit bool
	// Capture selects the delta capture architecture.
	Capture CaptureMode
	// MaintenanceWorkers sizes the shared worker pool that runs every
	// view's propagation and application jobs. Default 4, minimum 1.
	MaintenanceWorkers int
	// Partitions hash-partitions every base table's version store and
	// delta window by join key into this many partitions; a co-partitioned
	// join's propagation step fans out into per-partition jobs on the
	// maintenance pool. 0 defers to the ROLLINGJOIN_PARTITIONS environment
	// variable, then 1 (the unpartitioned behavior).
	Partitions int
	// BatchSize caps the rows per batch in the streaming executor — the
	// vectorization knob for scans, joins, and propagation queries. 0
	// defers to the ROLLINGJOIN_BATCH environment variable, then the
	// executor default (256).
	BatchSize int
	// FoldDeltas schedules the background delta-prefix fold job: a
	// low-priority maintenance job, woken by capture progress, that folds
	// view delta prefixes below the storage horizon into the derived
	// images, prunes unreachable base delta rows, collects dead row
	// versions, and trims the unit-of-work table — bounding memory under
	// sustained ingest. Point-in-time refresh above the fold line is
	// unaffected.
	FoldDeltas bool
	// SpillDir enables cold spill: derived images untouched for
	// SpillAfter serialize into a per-process subdirectory of SpillDir and
	// reload lazily on next access. Empty disables spilling.
	SpillDir string
	// SpillAfter is the idleness window before a structure is considered
	// cold (default one minute).
	SpillAfter time.Duration
	// Follower opens the database as a read-only replication target. The
	// engine rejects client writes with ErrReadOnly, the local log is fed
	// exclusively by ShipFrames (raw WAL bytes tailed from a leader), and
	// a scheduler job replays shipped commits — base-table writes at the
	// leader's CSNs, then delta capture — so locally defined views maintain
	// themselves against the leader's commit sequence. Capture is forced to
	// the log architecture; do not call Recover on a follower (replay
	// rebuilds base state from the shipped log itself).
	Follower bool
}

// defaultMaintenanceWorkers sizes the shared pool when Options leaves it
// zero: enough for propagate and apply to overlap across a handful of
// views without commandeering the writers' cores.
const defaultMaintenanceWorkers = 4

// DB is an embedded database with incremental view maintenance. All view
// maintenance — propagation and application for every view — runs on one
// event-driven scheduler with a bounded worker pool, woken by capture
// progress notifications rather than polling.
type DB struct {
	eng     *engine.DB
	sched   *sched.Scheduler
	logCap  *capture.LogCapture
	trigCap *capture.TriggerCapture
	src     capture.Source

	// capMu/capClaimed guard the one-shot capture start. A plain once
	// cannot express Restore's needs: a failed restore must leave the
	// claim unconsumed so a later view definition can still start capture.
	capMu      sync.Mutex
	capClaimed bool

	// follower marks a read-only replication target; applyJob is its
	// scheduler-driven replay of the shipped leader log (see follower.go).
	follower bool
	applyJob *sched.Job

	// Storage-tiering maintenance (see tiering.go): the fold and spill
	// jobs on the scheduler's low-priority queue, plus the ticker driving
	// the spill sweep.
	fold       *sched.Job
	spill      *sched.Job
	spillDir   string
	spillAfter time.Duration
	spillStop  chan struct{}
	spillWg    sync.WaitGroup

	mu     sync.Mutex
	views  map[string]*View
	aggs   map[string]*AggregateView
	unions []*UnionView
	// downs maps a maintained relation to the names of maintained
	// relations defined over it (cascade edges). DropView walks it to
	// drop dependents before their upstream disappears.
	downs map[string]map[string]bool
}

// Open creates a database instance and starts its capture process.
func Open(opts Options) (*DB, error) {
	cfg := engine.Config{
		SyncOnCommit: opts.SyncOnCommit,
		Partitions:   opts.Partitions,
		BatchSize:    opts.BatchSize,
		Replica:      opts.Follower,
	}
	if opts.Device != nil {
		cfg.Device = opts.Device
	} else if opts.WALPath != "" {
		dev, err := wal.OpenFileDevice(opts.WALPath)
		if err != nil {
			return nil, err
		}
		cfg.Device = dev
	}
	eng, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	db := &DB{
		eng:   eng,
		views: make(map[string]*View),
		aggs:  make(map[string]*AggregateView),
		downs: make(map[string]map[string]bool),
	}
	workers := opts.MaintenanceWorkers
	if workers <= 0 {
		workers = defaultMaintenanceWorkers
	}
	db.sched = sched.New(workers)
	eng.SetSchedStats(func() engine.SchedStats {
		st := db.sched.Stats()
		return engine.SchedStats{
			Workers:     st.Workers,
			Jobs:        st.Jobs,
			JobsRunning: st.Running,
			Notifies:    st.Notifies,
			Wakeups:     st.Wakeups,
			Steps:       st.Steps,
			Parks:       st.Parks,
			Backoffs:    st.Backoffs,
			BacklogRows: st.Backlog,
		}
	})
	switch {
	case opts.Follower:
		// A follower's capture runs in replica mode (commits replayed from
		// the shipped log also apply their base writes) and is driven by a
		// scheduler job instead of a free-running goroutine: RunBounded
		// steps replay the log synchronously, so shutdown and backpressure
		// compose with the rest of maintenance. The capture-start claim is
		// consumed up front so a view definition never launches the
		// goroutine alongside the job.
		db.follower = true
		db.capClaimed = true
		db.logCap = capture.NewReplicaLogCapture(eng)
		db.src = db.logCap
		db.logCap.OnProgress(func(csn relalg.CSN) { db.sched.Notify(csn) })
		db.applyJob = db.sched.Register("repl:apply", db.followerApplyStep, sched.Options{
			Classify: classifyMaintenance,
		})
		db.applyJob.Start()
	case opts.Capture == CaptureTrigger:
		db.trigCap = capture.NewTriggerCapture(eng)
		db.src = db.trigCap
		db.trigCap.OnProgress(func(csn relalg.CSN) { db.sched.Notify(csn) })
	default:
		// The capture goroutine starts lazily (on the first view definition
		// or Source access) so that a reopened database can re-create its
		// catalog — and replay the log with Recover — before any log record
		// is consumed.
		db.logCap = capture.NewLogCapture(eng)
		db.src = db.logCap
		db.logCap.OnProgress(func(csn relalg.CSN) { db.sched.Notify(csn) })
	}
	if err := db.startTiering(opts); err != nil {
		db.sched.Close()
		eng.Close()
		return nil, err
	}
	return db, nil
}

// ensureCapture starts the log-capture goroutine exactly once (no-op in
// trigger mode).
func (db *DB) ensureCapture() {
	if db.claimCapture() && db.logCap != nil {
		db.logCap.Start()
	}
}

// claimCapture consumes the one-shot capture-start claim, reporting whether
// this caller won it. Restore claims it only after the snapshot loads, so a
// failed restore leaves lazy capture start intact.
func (db *DB) claimCapture() bool {
	db.capMu.Lock()
	defer db.capMu.Unlock()
	if db.capClaimed {
		return false
	}
	db.capClaimed = true
	return true
}

// Recover replays the write-ahead log into the base tables, restoring a
// previous process's committed state. Call it on a reopened file-backed
// database after re-creating every table (and index), before any new
// transactions or view definitions. It returns the highest recovered
// commit sequence number.
func (db *DB) Recover() (CSN, error) {
	return db.eng.Recover()
}

// Close stops view maintenance, the capture process, and the engine, in
// dependency order: the scheduler shuts down first (draining every
// in-flight propagation and apply step), then the log capture drains —
// replaying every committed frame still in the log against the live
// engine — and only then does the engine (and its log device) close.
// Draining capture before the engine closes is load-bearing: the capture
// goroutine replays WAL frames from the device, so closing the device
// first would have it racing shutdown with reads against a closed file.
func (db *DB) Close() error {
	db.stopTiering()
	db.sched.Close()
	if db.logCap != nil {
		db.logCap.Drain()
	}
	err := db.eng.Close()
	if db.trigCap != nil {
		db.trigCap.Stop()
	}
	return err
}

// Engine exposes the underlying engine for advanced use (benchmarks and
// experiments).
func (db *DB) Engine() *engine.DB { return db.eng }

// Source exposes the capture progress watermark.
func (db *DB) Source() capture.Source {
	db.ensureCapture()
	return db.src
}

// UOW returns the unit-of-work table mapping CSNs to wall-clock commit
// times (nil in trigger mode before any commit).
func (db *DB) UOW() *capture.UnitOfWork {
	db.ensureCapture()
	if db.logCap != nil {
		return db.logCap.UOW()
	}
	return db.trigCap.UOW()
}

// LastCSN returns the most recent commit sequence number.
func (db *DB) LastCSN() CSN { return db.eng.LastCSN() }

// CreateTable registers a base table with a delta table, making it usable
// in view definitions.
func (db *DB) CreateTable(name string, cols ...Column) error {
	tcols := make([]tuple.Column, len(cols))
	for i, c := range cols {
		tcols[i] = tuple.Column{Name: c.Name, Kind: c.Type}
	}
	if _, err := db.eng.CreateTable(name, tuple.NewSchema(tcols...)); err != nil {
		return err
	}
	_, err := db.eng.CreateDelta(name)
	return err
}

// CreateIndex builds a hash index on a table column. Propagation queries
// whose delta side joins the indexed column use index nested-loop probes
// instead of full table scans. Create indexes right after CreateTable,
// before concurrent writers start.
func (db *DB) CreateIndex(table, column string) error {
	_, err := db.eng.CreateIndex(table, column)
	return err
}

// Tx is a read-write transaction.
type Tx struct {
	db    *DB
	inner *engine.Tx
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx { return &Tx{db: db, inner: db.eng.Begin()} }

// Insert adds a row.
func (tx *Tx) Insert(table string, values ...Value) error {
	return tx.inner.Insert(table, Tuple(values))
}

// Delete removes up to limit rows where column op constant holds
// (limit <= 0 removes all matches). It returns the number removed.
func (tx *Tx) Delete(table, column string, op CmpOp, v Value, limit int) (int, error) {
	t, err := tx.db.eng.Table(table)
	if err != nil {
		return 0, err
	}
	c := t.Schema().Index(column)
	if c < 0 {
		return 0, fmt.Errorf("rollingjoin: no column %q in table %q", column, table)
	}
	return tx.inner.DeleteWhere(table, relalg.ColConst{Col: c, Op: op, Val: v}, limit)
}

// DeleteMatching removes up to limit rows satisfying every condition
// (limit <= 0 removes all matches). Conditions reference columns of the
// target table; the Filter.Table field is ignored.
func (tx *Tx) DeleteMatching(table string, conds []Filter, limit int) (int, error) {
	t, err := tx.db.eng.Table(table)
	if err != nil {
		return 0, err
	}
	var pred relalg.And
	for _, f := range conds {
		c := t.Schema().Index(f.Column)
		if c < 0 {
			return 0, fmt.Errorf("rollingjoin: no column %q in table %q", f.Column, table)
		}
		pred = append(pred, relalg.ColConst{Col: c, Op: f.Op, Val: f.Value})
	}
	return tx.inner.DeleteWhere(table, pred, limit)
}

// Scan returns the table's committed rows (taking a shared table lock held
// to commit).
func (tx *Tx) Scan(table string) ([]Tuple, error) {
	rel, err := tx.inner.Scan(table, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Tuple, 0, rel.Len())
	for _, r := range rel.Rows {
		out = append(out, Tuple(r.Tuple))
	}
	return out, nil
}

// Commit commits the transaction and returns its commit sequence number.
func (tx *Tx) Commit() (CSN, error) { return tx.inner.Commit() }

// Abort rolls the transaction back.
func (tx *Tx) Abort() error { return tx.inner.Abort() }

// Update runs fn inside a transaction, committing on success and aborting
// on error or panic. It retries automatically when the transaction is
// chosen as a deadlock victim.
func (db *DB) Update(fn func(tx *Tx) error) (CSN, error) {
	for {
		tx := db.Begin()
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					tx.Abort()
					panic(r)
				}
			}()
			return fn(tx)
		}()
		if err != nil {
			tx.Abort()
			if errors.Is(err, txn.ErrDeadlock) {
				continue
			}
			return 0, err
		}
		csn, err := tx.Commit()
		if err != nil {
			return 0, err
		}
		return csn, nil
	}
}

// ViewSpec declares a select-project-join view over base tables.
type ViewSpec struct {
	Name    string
	Tables  []string
	Joins   []Join
	Filters []Filter
	Output  []OutCol
}

// resolve lowers the named spec to the core ViewDef.
func (db *DB) resolve(spec ViewSpec) (*core.ViewDef, error) {
	return db.resolveChecked(spec, true)
}

func (db *DB) resolveChecked(spec ViewSpec, requireDeltas bool) (*core.ViewDef, error) {
	if spec.Name == "" {
		return nil, errors.New("rollingjoin: view needs a name")
	}
	idx := make(map[string]int, len(spec.Tables))
	for i, t := range spec.Tables {
		if _, dup := idx[t]; dup {
			return nil, fmt.Errorf("rollingjoin: table %q appears twice in view %q (self-joins are not supported)", t, spec.Name)
		}
		idx[t] = i
	}
	colRef := func(table, column string) (engine.ColRef, error) {
		i, ok := idx[table]
		if !ok {
			return engine.ColRef{}, fmt.Errorf("rollingjoin: view %q references table %q not in its FROM list", spec.Name, table)
		}
		// Relations may be base tables or other maintained views (the
		// cascade contract), so resolve through the unified catalog.
		s, err := core.RelationSchema(db.eng, table)
		if err != nil {
			return engine.ColRef{}, err
		}
		c := s.Index(column)
		if c < 0 {
			return engine.ColRef{}, fmt.Errorf("rollingjoin: no column %q in relation %q", column, table)
		}
		return engine.ColRef{Input: i, Col: c}, nil
	}

	def := &core.ViewDef{Name: spec.Name, Relations: spec.Tables}
	for _, j := range spec.Joins {
		a, err := colRef(j.LeftTable, j.LeftColumn)
		if err != nil {
			return nil, err
		}
		b, err := colRef(j.RightTable, j.RightColumn)
		if err != nil {
			return nil, err
		}
		def.Conds = append(def.Conds, engine.JoinCond{A: a, B: b})
	}
	if len(spec.Filters) > 0 {
		// Filters become a residual predicate over the concatenated schema.
		offsets := make([]int, len(spec.Tables))
		pos := 0
		for i, name := range spec.Tables {
			s, err := core.RelationSchema(db.eng, name)
			if err != nil {
				return nil, err
			}
			offsets[i] = pos
			pos += s.Arity()
		}
		var conj relalg.And
		for _, f := range spec.Filters {
			ref, err := colRef(f.Table, f.Column)
			if err != nil {
				return nil, err
			}
			conj = append(conj, relalg.ColConst{Col: offsets[ref.Input] + ref.Col, Op: f.Op, Val: f.Value})
		}
		def.Residual = conj
	}
	for _, o := range spec.Output {
		ref, err := colRef(o.Table, o.Column)
		if err != nil {
			return nil, err
		}
		def.Project = append(def.Project, ref)
	}
	if requireDeltas {
		return def, def.Validate(db.eng)
	}
	return def, def.ValidateQuery(db.eng)
}

// QueryResult holds an ad-hoc SELECT result: the output column names and
// the rows (a tuple with multiplicity m appears m times).
type QueryResult struct {
	Columns []string
	Rows    []Tuple
}

// Query evaluates a one-shot select-project-join query described by the
// spec. Unlike DefineView it requires no delta tables and materializes
// nothing; it simply runs the query transactionally against the current
// committed state.
func (db *DB) Query(spec ViewSpec) (*QueryResult, error) {
	if spec.Name == "" {
		spec.Name = "adhoc"
	}
	def, err := db.resolveChecked(spec, false)
	if err != nil {
		return nil, err
	}
	schema, err := def.Schema(db.eng)
	if err != nil {
		return nil, err
	}
	tx := db.eng.Begin()
	rel, err := tx.EvalQuery(core.AllBase(def).EngineQuery())
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	res := &QueryResult{Columns: schema.Names()}
	for _, row := range relalg.NetEffect(rel).Rows {
		for i := int64(0); i < row.Count; i++ {
			res.Rows = append(res.Rows, Tuple(row.Tuple))
		}
	}
	return res, nil
}

// ViewNames returns the defined views, sorted.
func (db *DB) ViewNames() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.views))
	for n := range db.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableNames returns the registered base tables, sorted.
func (db *DB) TableNames() []string { return db.eng.TableNames() }

// Algorithm selects the propagation algorithm for a view.
type Algorithm uint8

// The propagation algorithms.
const (
	// AlgorithmRolling is rolling join propagation (Figure 10): one forward
	// query per step with per-relation intervals and deferred compensation.
	AlgorithmRolling Algorithm = iota
	// AlgorithmStepwise is the simpler Figure 5 process: one ComputeDelta
	// call per fixed interval.
	AlgorithmStepwise
)

// Maintain configures how a view is maintained.
type Maintain struct {
	// Algorithm defaults to AlgorithmRolling.
	Algorithm Algorithm
	// Interval is the propagation interval (in commits) used for every
	// relation without a per-relation override. Default 16.
	Interval CSN
	// Intervals optionally sets one interval per relation (rolling only).
	Intervals []CSN
	// Manual disables the background propagation goroutine; the caller
	// drives propagation with View.PropagateStep.
	Manual bool
	// KeepEmptyWindowQueries disables the empty-window elision
	// optimization, executing every propagation query the paper's
	// pseudocode issues.
	KeepEmptyWindowQueries bool
	// AdaptiveTargetRows, when positive, replaces the fixed intervals with
	// the adaptive policy: each relation's interval is sized so a forward
	// query covers roughly this many delta rows.
	AdaptiveTargetRows int
	// AutoRefresh also schedules the apply side: the materialized tuples
	// roll forward automatically as the high-water mark advances, instead
	// of waiting for Refresh calls.
	AutoRefresh bool
	// MaxBacklog, when positive, parks propagation while more than this
	// many un-applied view delta rows sit between the materialization time
	// and the high-water mark (backpressure: don't mint deltas faster than
	// anyone consumes them). Refresh, AutoRefresh, and CatchUp/WaitForHWM
	// demand all un-park it.
	MaxBacklog int
}

// DefineView materializes the view, wires up its delta table and
// propagation driver, and (unless Manual) starts propagation in the
// background.
//
// Relations may be base tables or other maintained views: a view's timed
// delta table registers under the view's own name, and together with its
// high-water mark it forms a derived relation downstream views read
// exactly like a base table. Cascades (fact → join view → rollup) are
// therefore planned, propagated, and refreshed through the same
// machinery at every level.
func (db *DB) DefineView(spec ViewSpec, opt Maintain) (*View, error) {
	db.ensureCapture()
	def, err := db.resolve(spec)
	if err != nil {
		return nil, err
	}
	schema, err := def.Schema(db.eng)
	if err != nil {
		return nil, err
	}

	// Maintained upstream relations make this a cascaded definition.
	ups, upNames := db.upstreamsOf(def.Relations)

	// The cascade contract: the view delta registers under the view's own
	// name, so delta positions of downstream propagation queries — and
	// db.Delta(viewName) — resolve without special cases.
	dest, err := db.eng.CreateStandaloneDelta(def.Name, schema)
	if err != nil {
		return nil, err
	}
	cleanup := func() {
		db.eng.UnregisterDerived(def.Name)
		db.eng.DropStandaloneDelta(def.Name)
	}

	// A cascaded view gates propagation on a composite source: progress is
	// min(base capture, upstream HWMs), and waiting drives lagging
	// upstreams forward first.
	src := db.src
	if len(ups) > 0 {
		vs := &capture.ViewSource{Base: db.src}
		for i, u := range ups {
			vs.Ups = append(vs.Ups, capture.Upstream{Name: upNames[i], HWM: u.hwm, CatchUp: u.CatchUpContext})
		}
		src = vs
	}

	// Initial materialization: pick one stable instant, bring every
	// upstream's high-water mark up to it (their deltas are then complete
	// there), and materialize all inputs at exactly that time.
	snap, err := db.eng.OpenSnapshot(relalg.NullTS)
	if err != nil {
		cleanup()
		return nil, err
	}
	asOf := snap.AsOf()
	snap.Close()
	for _, u := range ups {
		if err := u.CatchUp(asOf); err != nil {
			cleanup()
			return nil, err
		}
	}
	mv, err := core.MaterializeAt(db.eng, def, asOf)
	if err != nil {
		cleanup()
		return nil, err
	}
	exec := core.NewExecutor(db.eng, src, def, dest)
	exec.SkipEmptyWindows = !opt.KeepEmptyWindowQueries
	if db.eng.Partitions() > 1 {
		// Per-partition slice jobs of one propagation step fan out to the
		// shared maintenance pool, falling back inline when it is busy.
		exec.Spawn = db.sched.TrySpawn
	}

	interval := opt.Interval
	if interval <= 0 {
		interval = 16
	}
	var policy core.IntervalPolicy
	switch {
	case opt.AdaptiveTargetRows > 0:
		policy = core.AdaptiveInterval(db.eng, def, opt.AdaptiveTargetRows)
	case len(opt.Intervals) == def.N():
		policy = core.PerRelationIntervals(opt.Intervals...)
	default:
		policy = core.FixedInterval(interval)
	}

	v := &View{def: def, exec: exec, mv: mv, dest: dest}
	var step func() error
	var hwm func() CSN
	switch opt.Algorithm {
	case AlgorithmStepwise:
		p := core.NewPropagator(exec, mv.MatTime(), policy)
		step, hwm = p.Step, p.HWM
	default:
		rp := core.NewRollingPropagator(exec, mv.MatTime(), policy)
		step, hwm = rp.Step, rp.HWM
		v.rolling = rp
	}
	v.applier = core.NewApplier(mv, dest, hwm)
	v.maintained = maintained{db: db, hwm: hwm, src: src, ups: ups}

	// Register the view as a derived relation: its fixed image at asOf
	// plus the delta stream make it readable at any CSN up to the HWM.
	dv, err := db.eng.RegisterDerived(def.Name, schema, dest, hwm)
	if err != nil {
		cleanup()
		return nil, err
	}
	dv.SetImage(mv.AsRelation(), asOf)
	v.derived = dv
	v.prop = db.sched.Register("prop:"+def.Name, step, sched.Options{
		HWM:      hwm,
		Classify: classifyMaintenance,
		Backlog: func(limit int) int {
			return dest.PendingAfter(mv.MatTime(), limit)
		},
		MaxBacklog:   opt.MaxBacklog,
		OnProgress:   v.notifyDeps,
		WakeOnNotify: true,
	})
	if opt.AutoRefresh {
		v.apply = db.sched.Register("apply:"+def.Name, applyStep(v.applier), sched.Options{
			Classify:   classifyMaintenance,
			OnProgress: v.prop.Kick, // applying shrank the backlog
		})
	}

	db.mu.Lock()
	if _, dup := db.views[def.Name]; dup {
		db.mu.Unlock()
		v.unregisterJobs()
		cleanup()
		return nil, fmt.Errorf("rollingjoin: view %q already defined", def.Name)
	}
	db.views[def.Name] = v
	for _, un := range upNames {
		if db.downs[un] == nil {
			db.downs[un] = make(map[string]bool)
		}
		db.downs[un][def.Name] = true
	}
	db.mu.Unlock()

	// Chain the cascade on the scheduler: every upstream propagation
	// advance kicks this view's propagation job, so deltas flow level to
	// level without polling.
	for _, u := range ups {
		u.addDep(v.prop)
	}

	if !opt.Manual {
		v.StartPropagation()
	}
	return v, nil
}

// maintainedRel looks up a maintained relation (join view or incremental
// aggregate) by name.
func (db *DB) maintainedRel(name string) *maintained {
	db.mu.Lock()
	defer db.mu.Unlock()
	if v, ok := db.views[name]; ok {
		return &v.maintained
	}
	if a, ok := db.aggs[name]; ok {
		return &a.maintained
	}
	return nil
}

// upstreamsOf resolves the relation names that are maintained views.
func (db *DB) upstreamsOf(rels []string) (ups []*maintained, names []string) {
	for _, r := range rels {
		if m := db.maintainedRel(r); m != nil {
			ups = append(ups, m)
			names = append(names, r)
		}
	}
	return ups, names
}

// downstreamsOf returns the maintained relations currently defined over
// the named relation.
func (db *DB) downstreamsOf(name string) []*maintained {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*maintained, 0, len(db.downs[name]))
	for d := range db.downs[name] {
		if v, ok := db.views[d]; ok {
			out = append(out, &v.maintained)
		} else if a, ok := db.aggs[d]; ok {
			out = append(out, &a.maintained)
		}
	}
	return out
}

// View returns a previously defined view.
func (db *DB) View(name string) (*View, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v, ok := db.views[name]
	return v, ok
}

// DropView stops a maintained relation's jobs, drops every maintained
// relation defined over it (downstream views, aggregates, summaries),
// detaches it from its upstream cascade chains, and releases its delta
// table and derived registration — so the name can be redefined. The
// name may refer to a join view or an incremental aggregate.
func (db *DB) DropView(name string) error {
	db.mu.Lock()
	v, okV := db.views[name]
	a, okA := db.aggs[name]
	if !okV && !okA {
		db.mu.Unlock()
		return fmt.Errorf("rollingjoin: no view %q", name)
	}
	// Claim the name first (concurrent definitions over it fail fast),
	// then snapshot the dependents to drop.
	delete(db.views, name)
	delete(db.aggs, name)
	downs := make([]string, 0, len(db.downs[name]))
	for d := range db.downs[name] {
		downs = append(downs, d)
	}
	delete(db.downs, name)
	db.mu.Unlock()
	sort.Strings(downs)

	// Dependents go first: their propagation reads this relation's delta
	// stream, which is about to be released.
	for _, d := range downs {
		_ = db.DropView(d) // a concurrently dropped dependent is fine
	}

	var m *maintained
	if okV {
		m = &v.maintained
	} else {
		m = &a.maintained
	}
	err := m.StopPropagation()
	m.unregisterJobs()
	for _, u := range m.ups {
		u.removeDep(m.prop)
	}
	db.mu.Lock()
	for _, dn := range db.downs {
		delete(dn, name)
	}
	db.mu.Unlock()
	db.eng.UnregisterDerived(name)
	db.eng.DropStandaloneDelta(name)
	return err
}

// ErrNoCommits is returned by wall-clock-to-CSN translation when the
// database has no commit at or before the requested instant — including a
// completely fresh database with no commits at all.
var ErrNoCommits = errors.New("rollingjoin: no commits at or before the requested time")

// CSNAt translates a wall-clock instant to the last CSN committed at or
// before it, using the unit-of-work table. It returns ErrNoCommits when no
// commit is that old (a fresh database, or an instant before the first
// commit); callers must not assume a CSN exists — the pre-fix signature
// invited exactly the nil-UOW / zero-CSN panic this guards against.
func (db *DB) CSNAt(t time.Time) (CSN, error) {
	uow := db.UOW()
	if uow == nil {
		return 0, ErrNoCommits
	}
	csn, ok := uow.CSNAtOrBefore(t)
	if !ok {
		return 0, ErrNoCommits
	}
	return csn, nil
}

// PruneBaseDeltas garbage-collects base-table delta rows that no view can
// ever read again: for each base table, rows at or below the minimum
// high-water mark of the views that reference it. It returns the number of
// rows reclaimed. Call it periodically on long-running databases.
func (db *DB) PruneBaseDeltas() int {
	return db.pruneBaseDeltasTo(maxFoldCSN, false)
}
