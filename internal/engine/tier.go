package engine

import (
	"sync"

	"repro/internal/relalg"
)

// HorizonLedger is the shared fold/spill horizon registry. Every consumer
// of historical delta state — downstream views refreshing to a point in
// time, open snapshots, cascade upstreams, the incremental-checkpoint
// chain — registers a named pin at the oldest CSN it may still read. The
// ledger's floor (the minimum over the stable CSN, every open snapshot,
// and every pin) is the single horizon the tiering machinery folds, prunes,
// and spills against: state at or below the floor is reachable by nobody,
// so folding it into images (and later dropping the delta prefix) is
// invisible to all readers. This is the same provable-boundary discipline
// as the propagation HWM ledger, applied to storage reclamation.
type HorizonLedger struct {
	db   *DB
	mu   sync.Mutex
	pins map[string]relalg.CSN
}

// Horizons returns the instance's fold/spill horizon ledger.
func (db *DB) Horizons() *HorizonLedger { return db.horizons }

// Pin registers (or moves) a named horizon pin: the caller may still read
// state at CSNs >= csn, so the fold floor must not pass it. Pins are
// idempotent by name; re-pinning moves the existing pin.
func (l *HorizonLedger) Pin(name string, csn relalg.CSN) {
	l.mu.Lock()
	l.pins[name] = csn
	l.mu.Unlock()
}

// Unpin removes a named pin. Removing an absent pin is a no-op.
func (l *HorizonLedger) Unpin(name string) {
	l.mu.Lock()
	delete(l.pins, name)
	l.mu.Unlock()
}

// Pinned reports the named pin's CSN, if present.
func (l *HorizonLedger) Pinned(name string) (relalg.CSN, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	csn, ok := l.pins[name]
	return csn, ok
}

// Pins returns the number of registered pins (diagnostics).
func (l *HorizonLedger) Pins() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pins)
}

// Floor computes the fold horizon: the minimum over the stable CSN (no
// fold may pass a commit still publishing), every open snapshot's read
// time, and every registered pin. State strictly at or below the floor is
// unreachable by any current or future reader, so it is safe to fold into
// images and reclaim.
func (l *HorizonLedger) Floor() relalg.CSN {
	db := l.db
	floor := db.tm.StableCSN()
	db.snapMu.Lock()
	for asOf := range db.activeSnaps {
		if asOf < floor {
			floor = asOf
		}
	}
	db.snapMu.Unlock()
	l.mu.Lock()
	for _, csn := range l.pins {
		if csn < floor {
			floor = csn
		}
	}
	l.mu.Unlock()
	return floor
}

// NoteFold records one completed fold pass that pruned rows delta rows.
func (db *DB) NoteFold(rows int64) {
	db.compactions.Add(1)
	db.foldedRows.Add(rows)
}

// noteSpill records bytes written by one cold-spill serialization.
func (db *DB) noteSpill(bytes int64) { db.spilledBytes.Add(bytes) }

// noteColdLoad records one lazy reload of spilled state.
func (db *DB) noteColdLoad() { db.coldLoads.Add(1) }
