package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/relalg"
)

// This file implements the ReadView abstraction: a commit-ordered snapshot
// handle over the versioned heaps. A Snapshot at AsOf = t observes exactly
// the committed prefix {commits with CSN <= t} — no more, no less —
// without taking any table locks. Three properties make that sound:
//
//  1. Version metadata: every heap row carries a [born, dead) CSN
//     interval; visibility at t is the pure numeric test born <= t < dead
//     (table.go).
//  2. The commit-publish barrier: a transaction's CSN becomes "stable"
//     only after it has stamped all its row versions, and stability
//     advances contiguously (txn.Manager.StableCSN). OpenSnapshot waits
//     for AsOf to become stable, so no in-flight commit at or below AsOf
//     can still be mutating version headers while the snapshot reads.
//  3. GC clamping: version garbage collection never removes a dead
//     version still visible to a registered snapshot, and snapshots below
//     the collected horizon are refused with ErrSnapshotTooOld.
//
// Propagation and capture catch-up reads both resolve visibility through
// this one abstraction, which is what makes a query's reported execution
// time equal its actual read time by construction.

// ErrSnapshotTooOld marks an OpenSnapshot call below the version-GC
// horizon: dead versions the snapshot would need have been collected.
var ErrSnapshotTooOld = errors.New("engine: snapshot below the version GC horizon")

// Snapshot is a read view of the database as of one commit CSN. It takes
// no locks; Close releases its GC pin. Snapshots are safe for concurrent
// use by multiple readers.
type Snapshot struct {
	db   *DB
	asOf relalg.CSN

	mu     sync.Mutex
	closed bool
}

// AsOf returns the snapshot's commit CSN.
func (s *Snapshot) AsOf() relalg.CSN { return s.asOf }

// Scan materializes the table state visible at the snapshot, applying the
// optional pushdown predicate. Lock-free.
func (s *Snapshot) Scan(table string, pred relalg.Predicate) (*relalg.Relation, error) {
	t, err := s.db.Table(table)
	if err != nil {
		return nil, err
	}
	rel := t.scanAsOf(pred, s.asOf)
	s.db.addScanned(int64(rel.Len()))
	return rel, nil
}

// Close releases the snapshot's GC pin. Further reads through the
// snapshot are invalid. Close is idempotent.
func (s *Snapshot) Close() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return
	}
	db := s.db
	db.snapMu.Lock()
	if n := db.activeSnaps[s.asOf]; n <= 1 {
		delete(db.activeSnaps, s.asOf)
	} else {
		db.activeSnaps[s.asOf] = n - 1
	}
	db.snapMu.Unlock()
}

// OpenSnapshot opens a read view at asOf. asOf == NullTS means "latest
// stable": the highest CSN whose entire commit prefix has published. A
// nonzero asOf blocks until that CSN is stable (the publish barrier), so
// the caller must pass a CSN that has been or is about to be assigned —
// propagation passes delta-window bounds, which capture progress has
// already certified. Returns ErrSnapshotTooOld if version GC has
// collected past asOf.
func (db *DB) OpenSnapshot(asOf relalg.CSN) (*Snapshot, error) {
	if asOf == relalg.NullTS {
		asOf = db.tm.StableCSN()
	} else {
		db.tm.WaitStable(asOf)
	}
	db.snapMu.Lock()
	if asOf < db.gcHorizon {
		h := db.gcHorizon
		db.snapMu.Unlock()
		return nil, fmt.Errorf("%w: asOf %d < horizon %d", ErrSnapshotTooOld, asOf, h)
	}
	if db.activeSnaps == nil {
		db.activeSnaps = make(map[relalg.CSN]int)
	}
	db.activeSnaps[asOf]++
	db.snapMu.Unlock()
	db.snapshotsOpened.Add(1)
	return &Snapshot{db: db, asOf: asOf}, nil
}

// GCVersions collects dead row versions no longer visible to any possible
// reader: versions whose dead CSN is at or below min(stable CSN, every
// registered snapshot's AsOf). It returns the number of versions removed
// and the horizon used. Future OpenSnapshot calls below the horizon fail
// with ErrSnapshotTooOld.
func (db *DB) GCVersions() (collected int64, horizon relalg.CSN) {
	return db.GCVersionsBelow(relalg.CSN(math.MaxInt64))
}

// GCVersionsBelow is GCVersions with an extra ceiling: the horizon never
// passes limit even when no snapshot is open. The background fold job uses
// it with the subscriber refresh floor so lagging maintained views can
// still open compensation snapshots at their old high-water marks.
func (db *DB) GCVersionsBelow(limit relalg.CSN) (collected int64, horizon relalg.CSN) {
	db.snapMu.Lock()
	horizon = db.tm.StableCSN()
	if limit < horizon {
		horizon = limit
	}
	for asOf := range db.activeSnaps {
		if asOf < horizon {
			horizon = asOf
		}
	}
	if horizon > db.gcHorizon {
		db.gcHorizon = horizon
	} else {
		horizon = db.gcHorizon
	}
	db.snapMu.Unlock()

	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	for _, t := range tables {
		collected += t.gcVersions(horizon)
	}
	db.versionsGCed.Add(collected)
	return collected, horizon
}

// DeadVersionsRetained sums the committed-dead versions currently
// retained across all base tables (rows kept for snapshot readers,
// awaiting GC).
func (db *DB) DeadVersionsRetained() int64 {
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	var n int64
	for _, t := range tables {
		n += t.DeadVersions()
	}
	return n
}

// StableCSN returns the highest CSN S such that every commit at or below
// S has completed its publish phase: a snapshot at AsOf <= S observes an
// exact prefix of the commit order.
func (db *DB) StableCSN() relalg.CSN { return db.tm.StableCSN() }
