package engine

import (
	"errors"
	"fmt"

	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// Recover replays the write-ahead log into the base tables, restoring the
// committed state from a previous process. Call it after re-creating the
// catalog (tables, deltas, indexes) and before accepting new transactions;
// the commit-sequence counter resumes after the highest replayed CSN.
//
// Changes of transactions without a commit record are discarded, matching
// the recovery semantics of the log (an unfinished transaction never
// happened). The capture process reads the same log independently to
// rebuild the delta tables, so after Recover plus capture catch-up the
// whole system is back to its pre-crash state.
func (db *DB) Recover() (relalg.CSN, error) { return db.recover(0) }

// recover replays committed transactions from the given byte offset of the
// log into the base tables.
func (db *DB) recover(offset int64) (relalg.CSN, error) {
	type change struct {
		table string
		row   tuple.Tuple
		count int64
	}
	pending := make(map[uint64][]change)
	var maxCSN relalg.CSN

	r := db.log.NewReader(offset)
	for {
		rec, err := r.Next()
		if errors.Is(err, wal.ErrNoMore) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("engine: recovery: %w", err)
		}
		switch rec.Type {
		case wal.TypeBegin:
		case wal.TypeInsert:
			pending[rec.TxID] = append(pending[rec.TxID], change{rec.Table, rec.Row, +1})
		case wal.TypeDelete:
			pending[rec.TxID] = append(pending[rec.TxID], change{rec.Table, rec.Row, -1})
		case wal.TypeAbort:
			delete(pending, rec.TxID)
		case wal.TypeCommit:
			for _, ch := range pending[rec.TxID] {
				t, err := db.Table(ch.table)
				if err != nil {
					return 0, fmt.Errorf("engine: recovery: log references unknown table %q; recreate the catalog first", ch.table)
				}
				if ch.count > 0 {
					t.putCommitted(ch.row)
				} else {
					if !t.removeMatching(ch.row) {
						return 0, fmt.Errorf("engine: recovery: delete of missing row %s in %q", ch.row, ch.table)
					}
				}
			}
			delete(pending, rec.TxID)
			if rec.CSN > maxCSN {
				maxCSN = rec.CSN
			}
		}
	}
	db.tm.Recover(maxCSN)
	return maxCSN, nil
}

// removeMatching deletes one row exactly equal to the tuple, returning
// whether one was found. Latch-only; used by recovery, which runs before
// concurrent access starts.
func (t *Table) removeMatching(row tuple.Tuple) bool {
	t.latch.Lock()
	defer t.latch.Unlock()
	// A row replayed by recovery routes to the same shard a live insert
	// would, so only that shard can hold a match.
	sh := t.shards[t.shardForRow(row)]
	var foundKey []byte
	it := sh.First()
	for ; it.Valid(); it.Next() {
		_, dead, got := decodeVersionedRow(it.Value())
		if dead != csnNone {
			continue
		}
		if got.Equal(row) {
			foundKey = append([]byte(nil), it.Key()...)
			break
		}
	}
	if foundKey == nil {
		return false
	}
	sh.Delete(foundKey)
	for _, ix := range t.indexes {
		ix.remove(row[ix.column], rowidFromKey(foundKey))
	}
	return true
}
