package engine

import (
	"errors"
	"fmt"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// ErrReadOnly is returned by write paths on a replica engine: a follower's
// base-table state is owned by the leader's shipped log, so client inserts
// and deletes must go to the leader.
var ErrReadOnly = errors.New("engine: read-only replica")

// Replica reports whether the engine is a read-only replication target.
func (db *DB) Replica() bool { return db.replica }

// AppliedCSN returns the highest leader commit replayed through
// ApplyReplicated (0 before any).
func (db *DB) AppliedCSN() relalg.CSN { return relalg.CSN(db.appliedCSN.Load()) }

// ApplyReplicated applies one leader commit's base-table writes at the
// leader's CSN, then advances the local clock (lastCSN / stable) to csn so
// snapshot readers at AsOf <= csn observe the commit. It is the replica's
// replacement for the write-transaction path: no locks, no local WAL — the
// shipped log IS the WAL, ordering is the leader's commit order, and the
// single replay goroutine is the only base-table writer.
//
// Inserts land with born = csn; deletes are logical (dead = csn), keeping
// the version visible to snapshots below the commit, exactly as the
// leader's own publish phase would have stamped them.
func (db *DB) ApplyReplicated(csn relalg.CSN, writes []Write) error {
	if !db.replica {
		return fmt.Errorf("engine: ApplyReplicated on non-replica instance")
	}
	for _, w := range writes {
		t, err := db.Table(w.Table)
		if err != nil {
			return fmt.Errorf("engine: replicated commit %d: %w", csn, err)
		}
		switch {
		case w.Count > 0:
			t.putBorn(w.Row, csn)
			db.addWrites(1, 0)
		case w.Count < 0:
			if !t.stampDeadReplicated(w.Row, csn) {
				// The leader deleted a row this replica does not have live:
				// the streams have diverged (or replay skipped a commit).
				// Fail-stop rather than drift silently.
				return fmt.Errorf("engine: replicated commit %d: delete of absent row in %q", csn, w.Table)
			}
			db.addWrites(0, 1)
		}
	}
	// Advance the clock only after every row is stamped: Recover moves the
	// stable CSN, and a reader at AsOf <= stable must see the full commit.
	db.tm.Recover(csn)
	db.appliedCSN.Store(int64(csn))
	return nil
}

// stampDeadReplicated finds one live version equal to row and stamps it
// dead at csn (logical delete). It reports whether a matching live row was
// found. Multiset semantics: with duplicates, exactly one instance dies —
// matching the single Delete record the leader logged.
func (t *Table) stampDeadReplicated(row tuple.Tuple, csn relalg.CSN) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	for it := t.heap.First(); it.Valid(); it.Next() {
		born, dead, got := decodeVersionedRow(it.Value())
		if dead != csnNone || !got.Equal(row) {
			continue
		}
		t.setVersion(it.Key(), it.Value(), born, csn)
		t.noteDead(rowidFromKey(it.Key()), csn)
		return true
	}
	return false
}
