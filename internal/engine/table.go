package engine

import (
	"container/heap"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/btree"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// Row version sentinels. A heap row carries a [born, dead) CSN interval:
// a reader at AsOf t sees the row iff born <= t < dead. Writers insert
// with born = csnUnstamped and stamp the real CSN during the commit
// publish phase, so an unpublished row is numerically invisible to every
// snapshot (csnUnstamped exceeds any real AsOf). A deleter marks dead =
// csnDeadPending and stamps the real CSN at publish; csnDeadPending also
// exceeds any real AsOf, so the row stays visible to snapshots until the
// delete actually commits.
const (
	csnUnstamped   = relalg.CSN(math.MaxInt64)     // born: writer not yet published
	csnNone        = relalg.CSN(math.MaxInt64)     // dead: row alive
	csnDeadPending = relalg.CSN(math.MaxInt64 - 1) // dead: delete in flight
)

// visibleAt is the snapshot visibility rule: the version interval
// [born, dead) contains asOf.
func visibleAt(born, dead, asOf relalg.CSN) bool {
	return born <= asOf && dead > asOf
}

// Table is a heap base table: rows keyed by an auto-assigned rowid in a
// B+ tree, each carrying short version metadata (born/dead CSNs). The
// latch protects physical structure only; transactional isolation comes
// from the lock manager for writers and from the version metadata plus
// the commit-publish barrier for snapshot readers.
type Table struct {
	name   string
	schema *tuple.Schema

	latch   sync.RWMutex
	heap    *btree.Tree // rowid (8B big-endian) -> [born 8B][dead 8B][row encoding]
	nextRow uint64      // last assigned rowid (the insertion sequence)
	indexes []*Index
	dead    int64     // committed-dead versions retained (pending GC)
	deadQ   deadQueue // one entry per committed-dead version, for GC
}

// rowidFromKey decodes a heap key back to its rowid.
func rowidFromKey(k []byte) uint64 { return binary.BigEndian.Uint64(k) }

func newTable(name string, schema *tuple.Schema) *Table {
	return &Table{name: name, schema: schema, heap: btree.New()}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// Len returns the current number of heap entries (committed, in-flight,
// and dead versions awaiting GC).
func (t *Table) Len() int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.heap.Len()
}

// DeadVersions returns the number of committed-dead versions retained in
// the heap (deleted rows kept for snapshot readers until GC).
func (t *Table) DeadVersions() int64 {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.dead
}

// lockName is the table-level lock resource.
func (t *Table) lockName() string { return "T/" + t.name }

// rowLockName is the row-level lock resource for a rowid.
func (t *Table) rowLockName(rowid uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rowid)
	return "R/" + t.name + "/" + string(b[:])
}

func rowKey(rowid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rowid)
	return b[:]
}

func encodeVersionedRow(born, dead relalg.CSN, row tuple.Tuple) []byte {
	out := make([]byte, 16, 16+len(row)*8)
	binary.BigEndian.PutUint64(out[0:8], uint64(born))
	binary.BigEndian.PutUint64(out[8:16], uint64(dead))
	return tuple.EncodeRow(out, row)
}

// decodeVersionHeader splits a heap value into its version header and the
// still-encoded row payload, without materializing the tuple.
func decodeVersionHeader(v []byte) (born, dead relalg.CSN, enc []byte) {
	if len(v) < 16 {
		panic("engine: corrupt heap row: short version header")
	}
	born = relalg.CSN(binary.BigEndian.Uint64(v[0:8]))
	dead = relalg.CSN(binary.BigEndian.Uint64(v[8:16]))
	return born, dead, v[16:]
}

func decodeVersionedRow(v []byte) (born, dead relalg.CSN, row tuple.Tuple) {
	born, dead, enc := decodeVersionHeader(v)
	row, _, err := tuple.DecodeRow(enc)
	if err != nil {
		panic("engine: corrupt heap row: " + err.Error())
	}
	return born, dead, row
}

// put inserts a row at a fresh rowid with an unstamped born CSN and
// returns the rowid. The inserting transaction stamps the CSN during its
// commit publish phase. Latch-only; the caller holds the appropriate
// locks.
func (t *Table) put(row tuple.Tuple) uint64 {
	return t.putBorn(row, csnUnstamped)
}

// putCommitted inserts a row that is already committed at an unknown CSN
// (recovery replay and checkpoint restore): born 0 makes it visible to
// every snapshot.
func (t *Table) putCommitted(row tuple.Tuple) uint64 {
	return t.putBorn(row, 0)
}

func (t *Table) putBorn(row tuple.Tuple, born relalg.CSN) uint64 {
	t.latch.Lock()
	defer t.latch.Unlock()
	t.nextRow++
	id := t.nextRow
	t.heap.Put(rowKey(id), encodeVersionedRow(born, csnNone, row))
	for _, ix := range t.indexes {
		ix.insert(row[ix.column], id)
	}
	return id
}

// putAt reinstates a row at a specific rowid (undo of a delete on the
// legacy physical-remove path; retained for checkpoint restore).
func (t *Table) putAt(rowid uint64, row tuple.Tuple) {
	t.latch.Lock()
	defer t.latch.Unlock()
	t.heap.Put(rowKey(rowid), encodeVersionedRow(0, csnNone, row))
	for _, ix := range t.indexes {
		ix.insert(row[ix.column], rowid)
	}
}

// remove physically deletes the row at rowid, returning it (nil if
// absent). Used to undo an aborted insert and by recovery; committed
// deletes go through markDead/stampDead instead. A queue entry for a
// removed committed-dead version goes stale and GC drops it.
func (t *Table) remove(rowid uint64) tuple.Tuple {
	t.latch.Lock()
	defer t.latch.Unlock()
	v, ok := t.heap.Get(rowKey(rowid))
	if !ok {
		return nil
	}
	_, dead, row := decodeVersionedRow(v)
	t.heap.Delete(rowKey(rowid))
	if dead != csnNone && dead != csnDeadPending {
		t.dead--
	}
	for _, ix := range t.indexes {
		ix.remove(row[ix.column], rowid)
	}
	return row
}

// setVersion replaces the heap value v stored at k with a copy carrying a
// new version header. The caller holds the latch exclusively.
func (t *Table) setVersion(k, v []byte, born, dead relalg.CSN) {
	nv := make([]byte, len(v))
	binary.BigEndian.PutUint64(nv[0:8], uint64(born))
	binary.BigEndian.PutUint64(nv[8:16], uint64(dead))
	copy(nv[16:], v[16:])
	t.heap.Put(k, nv)
}

// stampBorn publishes an inserted row: its born CSN becomes the
// inserter's commit CSN.
func (t *Table) stampBorn(rowid uint64, csn relalg.CSN) {
	t.latch.Lock()
	defer t.latch.Unlock()
	k := rowKey(rowid)
	if v, ok := t.heap.Get(k); ok {
		_, dead, _ := decodeVersionHeader(v)
		t.setVersion(k, v, csn, dead)
	}
}

// markDead flags the row as being deleted by an in-flight transaction.
func (t *Table) markDead(rowid uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	k := rowKey(rowid)
	if v, ok := t.heap.Get(k); ok {
		born, _, _ := decodeVersionHeader(v)
		t.setVersion(k, v, born, csnDeadPending)
	}
}

// clearDead undoes markDead (delete aborted).
func (t *Table) clearDead(rowid uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	k := rowKey(rowid)
	if v, ok := t.heap.Get(k); ok {
		born, _, _ := decodeVersionHeader(v)
		t.setVersion(k, v, born, csnNone)
	}
}

// stampDead publishes a delete: the row's dead CSN becomes the deleter's
// commit CSN. The version is retained for snapshot readers until GC.
func (t *Table) stampDead(rowid uint64, csn relalg.CSN) {
	t.latch.Lock()
	defer t.latch.Unlock()
	k := rowKey(rowid)
	if v, ok := t.heap.Get(k); ok {
		born, _, _ := decodeVersionHeader(v)
		t.setVersion(k, v, born, csn)
		t.noteDead(rowid, csn)
	}
}

// noteDead counts a version that just became committed-dead at csn and
// queues it for GC. The caller holds the latch exclusively.
func (t *Table) noteDead(rowid uint64, csn relalg.CSN) {
	t.dead++
	heap.Push(&t.deadQ, deadVersion{csn: csn, rowid: rowid})
}

// gcVersions physically removes committed-dead versions with dead <=
// through, returning how many were collected. Callers must ensure no
// snapshot at or below through is still active.
//
// The cost is O(entries popped), not O(heap): the dead-version queue
// yields exactly the candidates in dead-CSN order. An entry is collected
// only if its row is still present and still died at the entry's CSN;
// entries left stale by remove or putAt are dropped.
func (t *Table) gcVersions(through relalg.CSN) int64 {
	t.latch.Lock()
	defer t.latch.Unlock()
	var n int64
	for len(t.deadQ) > 0 && t.deadQ[0].csn <= through {
		e := heap.Pop(&t.deadQ).(deadVersion)
		k := rowKey(e.rowid)
		v, ok := t.heap.Get(k)
		if !ok {
			continue
		}
		if _, dead, _ := decodeVersionHeader(v); dead != e.csn {
			continue
		}
		if len(t.indexes) > 0 {
			_, _, row := decodeVersionedRow(v)
			for _, ix := range t.indexes {
				ix.remove(row[ix.column], e.rowid)
			}
		}
		t.heap.Delete(k)
		n++
	}
	t.dead -= n
	return n
}

// deadVersion is one dead-version queue entry: the row at rowid was
// stamped dead at csn.
type deadVersion struct {
	csn   relalg.CSN
	rowid uint64
}

// deadQueue is a container/heap min-heap of dead versions keyed by dead
// CSN. Commits publish outside the commit mutex, so stamps arrive out of
// CSN order; the heap hands GC the lowest CSN first regardless.
type deadQueue []deadVersion

func (q deadQueue) Len() int           { return len(q) }
func (q deadQueue) Less(i, j int) bool { return q[i].csn < q[j].csn }
func (q deadQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *deadQueue) Push(x any)        { *q = append(*q, x.(deadVersion)) }
func (q *deadQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// getVersion returns the row at rowid with its version interval, or ok =
// false if physically absent.
func (t *Table) getVersion(rowid uint64) (row tuple.Tuple, born, dead relalg.CSN, ok bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	v, found := t.heap.Get(rowKey(rowid))
	if !found {
		return nil, 0, 0, false
	}
	born, dead, row = decodeVersionedRow(v)
	return row, born, dead, true
}

// get returns the current-state row at rowid, or nil. A row whose delete
// is committed or in flight is not current.
func (t *Table) get(rowid uint64) tuple.Tuple {
	row, _, dead, ok := t.getVersion(rowid)
	if !ok || dead != csnNone {
		return nil
	}
	return row
}

// scan materializes the current table state as a relation (count=+1, null
// timestamps), applying the optional pushdown predicate. Latch-only; the
// caller holds a table S lock, so any unstamped rows belong to the
// caller's own transaction and are included (read-your-writes).
func (t *Table) scan(pred relalg.Predicate) *relalg.Relation {
	t.latch.RLock()
	defer t.latch.RUnlock()
	out := relalg.NewRelation(t.schema)
	for it := t.heap.First(); it.Valid(); it.Next() {
		_, dead, row := decodeVersionedRow(it.Value())
		if dead != csnNone {
			continue
		}
		if pred != nil && !pred.Eval(row) {
			continue
		}
		out.Add(row, 1, relalg.NullTS)
	}
	return out
}

// scanAsOf materializes the table state visible at asOf. Latch-only and
// lock-free: the caller must hold a ReadView at or above asOf (AsOf at or
// below the stable CSN).
func (t *Table) scanAsOf(pred relalg.Predicate, asOf relalg.CSN) *relalg.Relation {
	t.latch.RLock()
	defer t.latch.RUnlock()
	out := relalg.NewRelation(t.schema)
	for it := t.heap.First(); it.Valid(); it.Next() {
		born, dead, row := decodeVersionedRow(it.Value())
		if !visibleAt(born, dead, asOf) {
			continue
		}
		if pred != nil && !pred.Eval(row) {
			continue
		}
		out.Add(row, 1, relalg.NullTS)
	}
	return out
}

// matchRowIDs returns the rowids whose current-state rows satisfy pred,
// up to limit (limit <= 0 means no limit), in insertion order. Latch-only
// snapshot; callers must re-check under row locks.
func (t *Table) matchRowIDs(pred relalg.Predicate, limit int) []uint64 {
	t.latch.RLock()
	defer t.latch.RUnlock()
	var ids []uint64
	for it := t.heap.First(); it.Valid(); it.Next() {
		_, dead, row := decodeVersionedRow(it.Value())
		if dead != csnNone {
			continue
		}
		if pred == nil || pred.Eval(row) {
			ids = append(ids, rowidFromKey(it.Key()))
			if limit > 0 && len(ids) >= limit {
				break
			}
		}
	}
	return ids
}
