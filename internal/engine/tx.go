package engine

import (
	"time"

	"repro/internal/fault"
	"repro/internal/relalg"
	"repro/internal/tuple"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Tx is a transactional session over the database. It is not goroutine-
// safe. All writes follow strict 2PL: locks acquired as data is touched and
// released only at commit or abort.
type Tx struct {
	db     *DB
	inner  *txn.Txn
	logged bool    // Begin record written
	writes []Write // recorded for the trigger sink, when installed

	// stamps are the version-stamping actions run in the commit publish
	// phase: they set born/dead CSNs on the rows this transaction wrote,
	// making heap visibility atomic with CSN assignment under the
	// stable-CSN barrier.
	stamps []func(csn relalg.CSN)
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, inner: db.tm.Begin()}
}

// ID returns the transaction identifier.
func (tx *Tx) ID() uint64 { return tx.inner.ID() }

// ensureBegin lazily writes the WAL Begin record before the first change.
func (tx *Tx) ensureBegin() error {
	if tx.logged {
		return nil
	}
	if _, err := tx.db.log.Append(&wal.Record{Type: wal.TypeBegin, TxID: tx.inner.ID()}); err != nil {
		return err
	}
	tx.logged = true
	return nil
}

func (tx *Tx) recordWrite(table string, row tuple.Tuple, count int64) {
	tx.db.sinkMu.RLock()
	enabled := tx.db.triggerSink != nil
	tx.db.sinkMu.RUnlock()
	if enabled {
		tx.writes = append(tx.writes, Write{Table: table, Row: row, Count: count})
	}
}

// Insert adds a row to the named base table. On a replica engine it
// returns ErrReadOnly: base state is owned by the leader's shipped log.
func (tx *Tx) Insert(table string, row tuple.Tuple) error {
	if tx.db.replica {
		return ErrReadOnly
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	if err := t.schema.Validate(row); err != nil {
		return err
	}
	if err := tx.inner.Lock(t.lockName(), txn.LockIX); err != nil {
		return err
	}
	if err := tx.ensureBegin(); err != nil {
		return err
	}
	rowid := t.put(row)
	// The rowid is fresh, so the X lock cannot block; taking it keeps the
	// protocol uniform and protects against delete-scans until commit.
	if err := tx.inner.Lock(t.rowLockName(rowid), txn.LockX); err != nil {
		t.remove(rowid)
		return err
	}
	if _, err := tx.db.log.Append(&wal.Record{Type: wal.TypeInsert, TxID: tx.inner.ID(), Table: table, Row: row}); err != nil {
		t.remove(rowid)
		return err
	}
	tx.inner.OnAbort(func() { t.remove(rowid) })
	tx.stamps = append(tx.stamps, func(csn relalg.CSN) { t.stampBorn(rowid, csn) })
	tx.recordWrite(table, row, +1)
	tx.db.addWrites(1, 0)
	return nil
}

// DeleteWhere removes up to limit rows satisfying pred from the table
// (limit <= 0 removes all matches). It returns the number of rows deleted.
// The scan locks each candidate row exclusively before deleting, so
// concurrent writers of other rows proceed in parallel; a predicate that
// races with a concurrent insert may miss it (no phantom protection on the
// write path — propagation queries use full table S locks instead).
func (tx *Tx) DeleteWhere(table string, pred relalg.Predicate, limit int) (int, error) {
	if tx.db.replica {
		return 0, ErrReadOnly
	}
	t, err := tx.db.Table(table)
	if err != nil {
		return 0, err
	}
	if err := tx.inner.Lock(t.lockName(), txn.LockIX); err != nil {
		return 0, err
	}
	deleted := 0
	for {
		remaining := 0
		if limit > 0 {
			remaining = limit - deleted
			if remaining == 0 {
				break
			}
		}
		ids := t.matchRowIDs(pred, remaining)
		if len(ids) == 0 {
			break
		}
		progress := false
		for _, id := range ids {
			if err := tx.inner.Lock(t.rowLockName(id), txn.LockX); err != nil {
				return deleted, err
			}
			// Re-check under the lock: the row may have been deleted or may
			// have been an uncommitted insert that aborted.
			row := t.get(id)
			if row == nil || (pred != nil && !pred.Eval(row)) {
				continue
			}
			if err := tx.ensureBegin(); err != nil {
				return deleted, err
			}
			if _, err := tx.db.log.Append(&wal.Record{Type: wal.TypeDelete, TxID: tx.inner.ID(), Table: table, Row: row}); err != nil {
				return deleted, err
			}
			// Logical delete: the version stays in the heap (visible to
			// snapshot readers below our commit CSN) until version GC.
			idCopy := id
			t.markDead(idCopy)
			tx.inner.OnAbort(func() { t.clearDead(idCopy) })
			tx.stamps = append(tx.stamps, func(csn relalg.CSN) { t.stampDead(idCopy, csn) })
			tx.recordWrite(table, row, -1)
			tx.db.addWrites(0, 1)
			deleted++
			progress = true
		}
		if !progress {
			break
		}
	}
	return deleted, nil
}

// Scan takes a table S lock and materializes the committed table state,
// applying the optional pushdown predicate.
func (tx *Tx) Scan(table string, pred relalg.Predicate) (*relalg.Relation, error) {
	t, err := tx.db.Table(table)
	if err != nil {
		return nil, err
	}
	if err := tx.inner.Lock(t.lockName(), txn.LockS); err != nil {
		return nil, err
	}
	rel := t.scan(pred)
	tx.db.addScanned(int64(rel.Len()))
	return rel, nil
}

// LockTableS acquires a table-level shared lock without scanning, used to
// pre-lock all inputs of a propagation query in a deterministic order.
func (tx *Tx) LockTableS(table string) error {
	t, err := tx.db.Table(table)
	if err != nil {
		return err
	}
	return tx.inner.Lock(t.lockName(), txn.LockS)
}

// AppendDelta appends a change record to a delta table as part of this
// transaction: it is undone if the transaction aborts. Used by propagation
// queries writing the view delta.
func (tx *Tx) AppendDelta(d *DeltaTable, ts relalg.CSN, count int64, row tuple.Tuple) {
	h := d.Append(ts, count, row)
	tx.inner.OnAbort(func() { d.Remove(h) })
}

// AppendDeltaEncoded is AppendDelta for a row already in tuple.EncodeRow
// form (the columnar propagation egress); partVal is the row's
// partition-column value.
func (tx *Tx) AppendDeltaEncoded(d *DeltaTable, ts relalg.CSN, count int64, encRow []byte, partVal tuple.Value) {
	h := d.AppendEncoded(ts, count, encRow, partVal)
	tx.inner.OnAbort(func() { d.Remove(h) })
}

// Commit finishes the transaction. The commit hook appends the WAL commit
// record and notifies the trigger sink while holding the commit mutex, so
// the log order, CSN order, and trigger-capture order all match the
// serialization order. The publish phase then stamps row versions with
// the commit CSN before the CSN becomes stable and the locks release.
func (tx *Tx) Commit() (relalg.CSN, error) {
	if tx.db.replica {
		// Quiet commit: keep the transaction's effects (delta appends) and
		// release its locks, but mint no CSN and write no WAL record — a
		// follower's time axis is the leader's CSN sequence, and its log
		// holds only shipped leader bytes. Base writes are already
		// impossible here (Insert/DeleteWhere gate on ErrReadOnly), so there
		// are no stamps to publish.
		return 0, tx.db.tm.CommitQuiet(tx.inner)
	}
	var publish func(relalg.CSN)
	if len(tx.stamps) > 0 {
		publish = func(csn relalg.CSN) {
			for _, stamp := range tx.stamps {
				stamp(csn)
			}
			tx.stamps = nil
		}
	}
	if fault.Enabled() {
		// The publish phase runs after the commit record is durable and
		// cannot fail, so the failpoint's error is discarded: it exists for
		// crash actions, which freeze the device between the durable commit
		// and the in-memory version stamps. Wrapping only under fault.Enabled
		// keeps the common path free of the extra closure allocation.
		stamps := publish
		publish = func(csn relalg.CSN) {
			_ = fault.Inject(fault.PointPublish)
			if stamps != nil {
				stamps(csn)
			}
		}
	}
	return tx.db.tm.CommitPublish(tx.inner, func(csn relalg.CSN, wall time.Time) error {
		if _, err := tx.db.log.Append(&wal.Record{
			Type: wal.TypeCommit, TxID: tx.inner.ID(), CSN: csn, WallNanos: wall.UnixNano(),
		}); err != nil {
			return err
		}
		if tx.db.cfg.SyncOnCommit {
			if err := tx.db.log.Sync(); err != nil {
				return err
			}
		}
		tx.db.sinkMu.RLock()
		sink := tx.db.triggerSink
		tx.db.sinkMu.RUnlock()
		if sink != nil && len(tx.writes) > 0 {
			sink.OnCommit(tx.writes, csn, wall)
		}
		return nil
	}, publish)
}

// Abort rolls back the transaction, undoing its heap and delta writes and
// appending an Abort record so the capture process discards its pending
// changes.
func (tx *Tx) Abort() error {
	if tx.logged {
		// Best effort: a failed abort record still leaves capture correct,
		// because pending changes are only applied on Commit.
		tx.db.log.Append(&wal.Record{Type: wal.TypeAbort, TxID: tx.inner.ID()})
	}
	return tx.db.tm.Abort(tx.inner)
}
