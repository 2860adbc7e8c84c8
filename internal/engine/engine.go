// Package engine implements the embedded multiset relational engine that
// plays the role of DB2 in the paper's prototype (Section 5, Figure 11):
// heap tables behind a strict-2PL lock manager, a write-ahead log consumed
// by the capture process, timestamp-ordered delta tables, and an executor
// for select-project-join propagation queries.
//
// Locking protocol: writers take IX on the table plus X on each touched
// row; scans take S on the table. A long-running propagation query
// therefore blocks base-table writers for its duration — precisely the
// contention the rolling propagation algorithm bounds by shrinking
// propagation intervals.
package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Common engine errors.
var (
	ErrNoSuchTable = errors.New("engine: no such table")
	ErrNoSuchDelta = errors.New("engine: no delta table registered")
	ErrExists      = errors.New("engine: object already exists")
)

// Write describes one base-table change made by a transaction; it is fed to
// the trigger sink (trigger-based capture) at commit.
type Write struct {
	Table string
	Row   tuple.Tuple
	Count int64 // +1 insert, -1 delete
}

// TriggerSink receives a committed transaction's writes synchronously inside
// the commit critical section. It models the paper's trigger-based capture
// alternative, including its cost: the work expands the writer's commit
// path.
type TriggerSink interface {
	OnCommit(writes []Write, csn relalg.CSN, wall time.Time)
}

// Config configures an engine instance.
type Config struct {
	// Device backs the write-ahead log. Nil means an in-memory device.
	Device wal.Device
	// SyncOnCommit forces a log sync inside every commit.
	SyncOnCommit bool
	// BatchSize is the row capacity the streaming scans and join operators
	// aim for per batch. 0 defers to the ROLLINGJOIN_BATCH environment
	// variable, then to exec.DefaultBatchSize.
	BatchSize int
	// Replica opens the engine as a read-only replication target: client
	// write paths return ErrReadOnly, local commits are quiet (no CSN, no
	// WAL record — the CSN axis belongs to the leader), and base-table
	// state advances only through ApplyReplicated as shipped leader
	// commits replay.
	Replica bool
}

// DB is an embedded database instance.
type DB struct {
	tm  *txn.Manager
	log *wal.Log

	mu      sync.RWMutex // guards the catalog maps
	tables  map[string]*Table
	deltas  map[string]*DeltaTable // keyed by base-table name
	derived map[string]*Derived    // maintained views readable as relations

	// batchSize is the per-instance batch row capacity (Config.BatchSize
	// resolved against ROLLINGJOIN_BATCH and the exec default).
	batchSize int

	sinkMu      sync.RWMutex
	triggerSink TriggerSink

	cfg Config

	// ReadView registry (readview.go): open snapshots pin the version-GC
	// horizon; gcHorizon is the CSN through which dead versions have been
	// collected.
	snapMu      sync.Mutex
	activeSnaps map[relalg.CSN]int
	gcHorizon   relalg.CSN

	// Activity counters are atomics: propagation steps of different views
	// run concurrently on the maintenance pool, and the streaming scans
	// report from operator Close.
	rowsScanned  atomic.Int64
	rowsJoined   atomic.Int64
	queriesRun   atomic.Int64
	rowsInserted atomic.Int64
	rowsDeleted  atomic.Int64
	indexProbes  atomic.Int64

	// Snapshot counters (see readview.go).
	snapshotsOpened atomic.Int64
	versionsGCed    atomic.Int64

	// Tiering state and counters (see tier.go, spill.go): the fold/spill
	// horizon ledger, fold passes completed, delta rows reclaimed by folds,
	// bytes written by cold spill, and lazy reloads of spilled state.
	horizons     *HorizonLedger
	compactions  atomic.Int64
	foldedRows   atomic.Int64
	spilledBytes atomic.Int64
	coldLoads    atomic.Int64

	// Batch-layer counters (query.go): batches and rows produced by
	// streaming pipelines, filter traffic for the selection-vector hit
	// rate, and the resident bytes of the last released pipeline arena.
	batchesProduced atomic.Int64
	batchRows       atomic.Int64
	filterRowsIn    atomic.Int64
	filterRowsKept  atomic.Int64
	arenaBytes      atomic.Int64

	// schedStats, when set, reports the maintenance scheduler's counters
	// (the scheduler lives above the engine; the hook pulls its snapshot
	// into Stats so one call covers the whole instance).
	schedStats atomic.Pointer[func() SchedStats]

	// replica marks the engine as a read-only replication target; see
	// Config.Replica. appliedCSN tracks the highest leader commit replayed
	// through ApplyReplicated.
	replica    bool
	appliedCSN atomic.Int64

	// replStats, when set, reports the replication layer's counters (the
	// tailer lives above the engine, like the scheduler).
	replStats atomic.Pointer[func() ReplStats]
}

// Open creates a database instance, recovering the log end if the device
// has prior content.
func Open(cfg Config) (*DB, error) {
	dev := cfg.Device
	if dev == nil {
		dev = wal.NewMemDevice()
	}
	log, err := wal.NewLog(dev)
	if err != nil {
		return nil, err
	}
	bsz := cfg.BatchSize
	if bsz == 0 {
		if env := os.Getenv("ROLLINGJOIN_BATCH"); env != "" {
			if v, perr := strconv.Atoi(env); perr == nil && v >= 1 {
				bsz = v
			}
		}
	}
	if bsz < 1 {
		bsz = exec.DefaultBatchSize
	}
	db := &DB{
		tm:        txn.NewManager(),
		log:       log,
		tables:    make(map[string]*Table),
		deltas:    make(map[string]*DeltaTable),
		batchSize: bsz,
		cfg:       cfg,
		replica:   cfg.Replica,
	}
	db.horizons = &HorizonLedger{db: db, pins: make(map[string]relalg.CSN)}
	return db, nil
}

// BatchSize returns the per-instance batch row capacity the streaming
// pipelines use.
func (db *DB) BatchSize() int { return db.batchSize }

// Close closes the log; in-flight blocking readers are woken.
func (db *DB) Close() error { return db.log.Close() }

// TM exposes the transaction manager (for stats and advanced callers).
func (db *DB) TM() *txn.Manager { return db.tm }

// Log exposes the write-ahead log (the capture process tails it).
func (db *DB) Log() *wal.Log { return db.log }

// SetTriggerSink installs or clears the trigger-based capture sink.
func (db *DB) SetTriggerSink(s TriggerSink) {
	db.sinkMu.Lock()
	db.triggerSink = s
	db.sinkMu.Unlock()
}

// CreateTable registers a new base table.
func (db *DB) CreateTable(name string, schema *tuple.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: table %q", ErrExists, name)
	}
	t := newTable(name, schema)
	db.tables[name] = t
	return t, nil
}

// CreateDelta registers a delta table Δ^R for the named base table. The
// capture process populates it.
func (db *DB) CreateDelta(base string) (*DeltaTable, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	bt, ok := db.tables[base]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, base)
	}
	if _, ok := db.deltas[base]; ok {
		return nil, fmt.Errorf("%w: delta for %q", ErrExists, base)
	}
	d := newDeltaTable(base, bt.schema)
	db.deltas[base] = d
	return d, nil
}

// CreateStandaloneDelta creates a delta table not tied to a registered base
// table (used for view delta tables, whose "base" is the view itself).
func (db *DB) CreateStandaloneDelta(name string, schema *tuple.Schema) (*DeltaTable, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.deltas[name]; ok {
		return nil, fmt.Errorf("%w: delta %q", ErrExists, name)
	}
	d := newDeltaTable(name, schema)
	db.deltas[name] = d
	return d, nil
}

// Table looks up a base table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Delta looks up a delta table by its base name.
func (db *DB) Delta(base string) (*DeltaTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.deltas[base]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDelta, base)
	}
	return d, nil
}

// HasDelta reports whether a delta table is registered for base.
func (db *DB) HasDelta(base string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.deltas[base]
	return ok
}

// TableNames returns the registered base-table names, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LastCSN returns the most recent commit sequence number.
func (db *DB) LastCSN() relalg.CSN { return db.tm.LastCSN() }

// Stats is a snapshot of engine activity counters.
type Stats struct {
	RowsScanned  int64
	RowsJoined   int64
	QueriesRun   int64
	RowsInserted int64
	RowsDeleted  int64
	IndexProbes  int64

	// ReadView counters: snapshots opened, publish-barrier stalls (waits
	// that had to block for an in-flight commit to finish publishing),
	// dead row versions currently retained for snapshot readers, and
	// versions removed by GC so far.
	SnapshotsOpened   int64
	PublishStalls     int64
	VersionsRetained  int64
	VersionsCollected int64

	// HeavyKeys is always 0. It counted the join keys a heavy/light
	// frequency classifier had routed into the join-state cache; both were
	// deleted after the cache measured slower than index probes and the
	// classifier never fired on a Zipf-skewed fact table. The field stays
	// because external readers of Stats (the freshness harness's
	// heavy_keys layer) still decode it.
	HeavyKeys int64

	// Batch-layer counters. BatchesProduced and BatchRows count the
	// batches and rows streamed out of query pipelines (rows/batch is
	// their ratio). FilterRowsIn and FilterRowsKept count rows entering
	// and surviving vectorized filters (their ratio is the
	// selection-vector hit rate). ArenaBytes is the resident footprint of
	// the most recently released pipeline arena.
	BatchesProduced int64
	BatchRows       int64
	FilterRowsIn    int64
	FilterRowsKept  int64
	ArenaBytes      int64

	// Tiering counters (tier.go, spill.go). Compactions counts completed
	// fold passes; FoldedRows the delta rows reclaimed by folding below the
	// horizon ledger's floor; SpilledBytes the cumulative bytes serialized
	// by cold spill; ColdLoads the lazy reloads of spilled state.
	// ImageResidentBytes is the current in-memory footprint of derived-view
	// images (spilled images count zero until reloaded).
	Compactions        int64
	FoldedRows         int64
	SpilledBytes       int64
	ColdLoads          int64
	ImageResidentBytes int64

	// Sched holds the maintenance scheduler's counters when one is
	// attached (SetSchedStats); zero otherwise.
	Sched SchedStats

	// Repl holds the replication layer's gauges when one is attached
	// (SetReplStats); zero otherwise.
	Repl ReplStats

	Txn txn.Stats
}

// ReplStats is a snapshot of the replication layer attached to this
// instance: the node's role, how far the follower's replay has advanced
// against the leader's commit sequence, and shipping-volume counters. On a
// leader the gauges describe the serving side (bytes streamed out); on a
// follower they describe the tailer.
type ReplStats struct {
	// Role is "leader", "follower", or "" when no replication layer is
	// attached.
	Role string
	// FollowerCSN is the highest leader commit the follower has applied
	// locally; LeaderCSN is the leader's last observed commit. Their
	// difference, LagCSNs, is the replication lag on the CSN axis — 0
	// means every known leader commit is visible to local reads.
	FollowerCSN int64
	LeaderCSN   int64
	LagCSNs     int64
	// BytesShipped counts raw WAL bytes moved over the wire (received on a
	// follower, streamed out on a leader); Reconnects counts tailer
	// reconnection attempts after a dropped shipping stream.
	BytesShipped int64
	Reconnects   int64
}

// SetReplStats attaches the replication layer's stats snapshot function;
// Stats() consults it on every call.
func (db *DB) SetReplStats(fn func() ReplStats) { db.replStats.Store(&fn) }

// SchedStats is a snapshot of the maintenance scheduler attached to this
// database instance: worker-pool shape, event-driven wakeup activity, and
// the summed apply backlog that drives backpressure.
type SchedStats struct {
	Workers     int
	Jobs        int
	JobsRunning int
	Notifies    int64 // capture progress notifications delivered
	Wakeups     int64 // job dispatches onto a worker
	Steps       int64 // propagation/apply steps executed
	Parks       int64 // backpressure parks
	Backoffs    int64 // error backoffs
	BacklogRows int64 // pending un-applied view-delta rows (summed)
}

// SetSchedStats attaches the maintenance scheduler's stats snapshot
// function; Stats() consults it on every call.
func (db *DB) SetSchedStats(fn func() SchedStats) { db.schedStats.Store(&fn) }

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	var ss SchedStats
	if fn := db.schedStats.Load(); fn != nil {
		ss = (*fn)()
	}
	var rs ReplStats
	if fn := db.replStats.Load(); fn != nil {
		rs = (*fn)()
	}
	return Stats{
		Sched:              ss,
		Repl:               rs,
		RowsScanned:        db.rowsScanned.Load(),
		RowsJoined:         db.rowsJoined.Load(),
		QueriesRun:         db.queriesRun.Load(),
		RowsInserted:       db.rowsInserted.Load(),
		RowsDeleted:        db.rowsDeleted.Load(),
		IndexProbes:        db.indexProbes.Load(),
		BatchesProduced:    db.batchesProduced.Load(),
		BatchRows:          db.batchRows.Load(),
		FilterRowsIn:       db.filterRowsIn.Load(),
		FilterRowsKept:     db.filterRowsKept.Load(),
		ArenaBytes:         db.arenaBytes.Load(),
		Compactions:        db.compactions.Load(),
		FoldedRows:         db.foldedRows.Load(),
		SpilledBytes:       db.spilledBytes.Load(),
		ColdLoads:          db.coldLoads.Load(),
		ImageResidentBytes: db.imageResidentBytes(),
		SnapshotsOpened:    db.snapshotsOpened.Load(),
		PublishStalls:      db.tm.Stats().PublishStalls,
		VersionsRetained:   db.DeadVersionsRetained(),
		VersionsCollected:  db.versionsGCed.Load(),
		Txn:                db.tm.Stats(),
	}
}

func (db *DB) addScanned(n int64) { db.rowsScanned.Add(n) }

// noteBatches records one drained pipeline's batch and row counts.
func (db *DB) noteBatches(rows, batches int64) {
	db.batchesProduced.Add(batches)
	db.batchRows.Add(rows)
}

// noteFilter records one vectorized filter application (rows in, kept).
func (db *DB) noteFilter(in, kept int) {
	db.filterRowsIn.Add(int64(in))
	db.filterRowsKept.Add(int64(kept))
}

// addFilterStats is noteFilter for scan-side accumulated counts.
func (db *DB) addFilterStats(in, kept int64) {
	db.filterRowsIn.Add(in)
	db.filterRowsKept.Add(kept)
}

// noteArena records a released pipeline arena's resident footprint.
func (db *DB) noteArena(a *exec.Arena) { db.arenaBytes.Store(a.Footprint()) }

func (db *DB) addJoined(n int64) { db.rowsJoined.Add(n) }

func (db *DB) addQuery() { db.queriesRun.Add(1) }

func (db *DB) addProbes(n int64) { db.indexProbes.Add(n) }

func (db *DB) addWrites(ins, del int64) {
	db.rowsInserted.Add(ins)
	db.rowsDeleted.Add(del)
}
