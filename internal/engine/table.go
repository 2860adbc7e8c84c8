package engine

import (
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
//
// When the engine is opened with Partitions = N > 1 the heap is split
// into hash shards: a row lives in shard hashPart(row[partCol], N), and
// its rowid encodes the shard in the low shardBits bits (rowid =
// seq<<shardBits | shard), so point accesses route directly. With N = 1
// there is a single shard and zero shard bits — rowids and layout are
// identical to the unpartitioned engine.
type Table struct {
	name   string
	schema *tuple.Schema

	nparts    int  // hash partitions (>= 1)
	partCol   int  // column whose hash routes rows
	shardBits uint // low rowid bits holding the shard index

	latch   sync.RWMutex
	shards  []*btree.Tree // len 1<<shardBits; rowid (8B big-endian) -> [born 8B][dead 8B][row encoding]
	nextRow uint64        // global insertion sequence (not a rowid when sharded)
	indexes []*Index
	dead    int64 // committed-dead versions retained (pending GC)
}

// rowidFromKey decodes a heap key back to its rowid.
func rowidFromKey(k []byte) uint64 { return binary.BigEndian.Uint64(k) }

func newTable(name string, schema *tuple.Schema, nparts, partCol int) *Table {
	if nparts < 1 {
		nparts = 1
	}
	bits := shardBitsFor(nparts)
	shards := make([]*btree.Tree, 1<<bits)
	for i := range shards {
		shards[i] = btree.New()
	}
	return &Table{
		name:      name,
		schema:    schema,
		nparts:    nparts,
		partCol:   partCol,
		shardBits: bits,
		shards:    shards,
	}
}

// Partitions returns the table's hash-partition count (1 = unpartitioned).
func (t *Table) Partitions() int { return t.nparts }

// PartitionColumn returns the column whose hash routes rows to partitions.
func (t *Table) PartitionColumn() int { return t.partCol }

// shardIdx returns the physical shard holding rowid.
func (t *Table) shardIdx(rowid uint64) int {
	return int(rowid & (uint64(1)<<t.shardBits - 1))
}

// shardForRow returns the shard a new row routes to.
func (t *Table) shardForRow(row tuple.Tuple) int {
	if t.nparts <= 1 {
		return 0
	}
	return hashPart(row[t.partCol], t.nparts)
}

// heapOf returns the shard tree for rowid.
func (t *Table) heapOf(rowid uint64) *btree.Tree { return t.shards[t.shardIdx(rowid)] }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// Len returns the current number of heap entries (committed, in-flight,
// and dead versions awaiting GC).
func (t *Table) Len() int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	n := 0
	for _, sh := range t.shards {
		n += sh.Len()
	}
	return n
}

// PartLen returns the number of heap entries in hash partition p.
func (t *Table) PartLen(p int) int {
	t.latch.RLock()
	defer t.latch.RUnlock()
	if p < 0 || p >= len(t.shards) {
		return 0
	}
	return t.shards[p].Len()
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

func decodeVersionedRow(v []byte) (born, dead relalg.CSN, row tuple.Tuple) {
	if len(v) < 16 {
		panic("engine: corrupt heap row: short version header")
	}
	born = relalg.CSN(binary.BigEndian.Uint64(v[0:8]))
	dead = relalg.CSN(binary.BigEndian.Uint64(v[8:16]))
	row, _, err := tuple.DecodeRow(v[16:])
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
	shard := t.shardForRow(row)
	id := t.nextRow<<t.shardBits | uint64(shard)
	t.shards[shard].Put(rowKey(id), encodeVersionedRow(born, csnNone, row))
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
	t.heapOf(rowid).Put(rowKey(rowid), encodeVersionedRow(0, csnNone, row))
	for _, ix := range t.indexes {
		ix.insert(row[ix.column], rowid)
	}
}

// remove physically deletes the row at rowid, returning it (nil if
// absent). Used to undo an aborted insert and by recovery; committed
// deletes go through markDead/stampDead instead.
func (t *Table) remove(rowid uint64) tuple.Tuple {
	t.latch.Lock()
	defer t.latch.Unlock()
	sh := t.heapOf(rowid)
	v, ok := sh.Get(rowKey(rowid))
	if !ok {
		return nil
	}
	_, dead, row := decodeVersionedRow(v)
	sh.Delete(rowKey(rowid))
	if dead != csnNone && dead != csnDeadPending {
		t.dead--
	}
	for _, ix := range t.indexes {
		ix.remove(row[ix.column], rowid)
	}
	return row
}

// setVersion rewrites the version header of rowid in place.
func (t *Table) setVersion(rowid uint64, born, dead relalg.CSN) {
	k := rowKey(rowid)
	sh := t.heapOf(rowid)
	v, ok := sh.Get(k)
	if !ok {
		return
	}
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(born))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(dead))
	nv := make([]byte, len(v))
	copy(nv, hdr[:])
	copy(nv[16:], v[16:])
	sh.Put(k, nv)
}

// stampBorn publishes an inserted row: its born CSN becomes the
// inserter's commit CSN.
func (t *Table) stampBorn(rowid uint64, csn relalg.CSN) {
	t.latch.Lock()
	defer t.latch.Unlock()
	v, ok := t.heapOf(rowid).Get(rowKey(rowid))
	if !ok {
		return
	}
	_, dead, _ := decodeVersionedRow(v)
	t.setVersion(rowid, csn, dead)
}

// markDead flags the row as being deleted by an in-flight transaction.
func (t *Table) markDead(rowid uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	v, ok := t.heapOf(rowid).Get(rowKey(rowid))
	if !ok {
		return
	}
	born, _, _ := decodeVersionedRow(v)
	t.setVersion(rowid, born, csnDeadPending)
}

// clearDead undoes markDead (delete aborted).
func (t *Table) clearDead(rowid uint64) {
	t.latch.Lock()
	defer t.latch.Unlock()
	v, ok := t.heapOf(rowid).Get(rowKey(rowid))
	if !ok {
		return
	}
	born, _, _ := decodeVersionedRow(v)
	t.setVersion(rowid, born, csnNone)
}

// stampDead publishes a delete: the row's dead CSN becomes the deleter's
// commit CSN. The version is retained for snapshot readers until GC.
func (t *Table) stampDead(rowid uint64, csn relalg.CSN) {
	t.latch.Lock()
	defer t.latch.Unlock()
	v, ok := t.heapOf(rowid).Get(rowKey(rowid))
	if !ok {
		return
	}
	born, _, _ := decodeVersionedRow(v)
	t.setVersion(rowid, born, csn)
	t.dead++
}

// gcVersions physically removes committed-dead versions with dead <=
// through, returning how many were collected. Callers must ensure no
// snapshot at or below through is still active.
func (t *Table) gcVersions(through relalg.CSN) int64 {
	t.latch.Lock()
	defer t.latch.Unlock()
	type doomed struct {
		shard int
		key   []byte
		row   tuple.Tuple
	}
	var dead []doomed
	for si, sh := range t.shards {
		it := sh.First()
		for ; it.Valid(); it.Next() {
			_, d, row := decodeVersionedRow(it.Value())
			if d != csnNone && d != csnDeadPending && d <= through {
				dead = append(dead, doomed{si, append([]byte(nil), it.Key()...), row})
			}
		}
	}
	for _, d := range dead {
		t.shards[d.shard].Delete(d.key)
		for _, ix := range t.indexes {
			ix.remove(d.row[ix.column], rowidFromKey(d.key))
		}
	}
	t.dead -= int64(len(dead))
	return int64(len(dead))
}

// getVersion returns the row at rowid with its version interval, or ok =
// false if physically absent.
func (t *Table) getVersion(rowid uint64) (row tuple.Tuple, born, dead relalg.CSN, ok bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	v, found := t.heapOf(rowid).Get(rowKey(rowid))
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

// sliceShards returns the shard trees a slice reads: the single matching
// shard when the spec's partitioning equals the table's own, all shards
// otherwise (the spec then filters per row). The second result reports
// whether the shards are already hash-pure for the spec.
func (t *Table) sliceShards(spec *PartSpec) ([]*btree.Tree, bool) {
	if !spec.sliced() {
		return t.shards, false
	}
	if spec.N == t.nparts {
		return t.shards[spec.Part : spec.Part+1], true
	}
	return t.shards, false
}

// scan materializes the current table state as a relation (count=+1, null
// timestamps), applying the optional pushdown predicate. Latch-only; the
// caller holds a table S lock, so any unstamped rows belong to the
// caller's own transaction and are included (read-your-writes).
func (t *Table) scan(pred relalg.Predicate) *relalg.Relation {
	t.latch.RLock()
	defer t.latch.RUnlock()
	out := relalg.NewRelation(t.schema)
	for _, sh := range t.shards {
		it := sh.First()
		for ; it.Valid(); it.Next() {
			_, dead, row := decodeVersionedRow(it.Value())
			if dead != csnNone {
				continue
			}
			if pred != nil && !pred.Eval(row) {
				continue
			}
			out.Add(row, 1, relalg.NullTS)
		}
	}
	return out
}

// scanAsOf materializes the table state visible at asOf. Latch-only and
// lock-free: the caller must hold a ReadView at or above asOf (AsOf at or
// below the stable CSN).
func (t *Table) scanAsOf(pred relalg.Predicate, asOf relalg.CSN) *relalg.Relation {
	return t.scanAsOfPart(pred, asOf, nil)
}

// scanAsOfPart is scanAsOf restricted to one partition slice (nil spec =
// full table).
func (t *Table) scanAsOfPart(pred relalg.Predicate, asOf relalg.CSN, spec *PartSpec) *relalg.Relation {
	t.latch.RLock()
	defer t.latch.RUnlock()
	out := relalg.NewRelation(t.schema)
	shards, pure := t.sliceShards(spec)
	filter := spec.sliced() && !pure
	for _, sh := range shards {
		it := sh.First()
		for ; it.Valid(); it.Next() {
			born, dead, row := decodeVersionedRow(it.Value())
			if !visibleAt(born, dead, asOf) {
				continue
			}
			if filter && !spec.admits(row[t.partCol]) {
				continue
			}
			if pred != nil && !pred.Eval(row) {
				continue
			}
			out.Add(row, 1, relalg.NullTS)
		}
	}
	return out
}

// matchRowIDs returns the rowids whose current-state rows satisfy pred,
// up to limit (limit <= 0 means no limit), in global insertion order so
// victim selection is independent of the partition count. Latch-only
// snapshot; callers must re-check under row locks.
func (t *Table) matchRowIDs(pred relalg.Predicate, limit int) []uint64 {
	t.latch.RLock()
	defer t.latch.RUnlock()
	var ids []uint64
	if len(t.shards) == 1 {
		it := t.shards[0].First()
		for ; it.Valid(); it.Next() {
			_, dead, row := decodeVersionedRow(it.Value())
			if dead != csnNone {
				continue
			}
			if pred == nil || pred.Eval(row) {
				ids = append(ids, binary.BigEndian.Uint64(it.Key()))
				if limit > 0 && len(ids) >= limit {
					break
				}
			}
		}
		return ids
	}
	// Per shard, keys ascend in insertion (sequence) order; collect the
	// first limit matches of each shard and merge by sequence.
	var perShard [][]uint64
	for _, sh := range t.shards {
		var got []uint64
		it := sh.First()
		for ; it.Valid(); it.Next() {
			_, dead, row := decodeVersionedRow(it.Value())
			if dead != csnNone {
				continue
			}
			if pred == nil || pred.Eval(row) {
				got = append(got, binary.BigEndian.Uint64(it.Key()))
				if limit > 0 && len(got) >= limit {
					break
				}
			}
		}
		perShard = append(perShard, got)
	}
	heads := make([]int, len(perShard))
	for {
		best := -1
		var bestSeq uint64
		for si, got := range perShard {
			if heads[si] >= len(got) {
				continue
			}
			seq := got[heads[si]] >> t.shardBits
			if best < 0 || seq < bestSeq {
				best, bestSeq = si, seq
			}
		}
		if best < 0 {
			break
		}
		ids = append(ids, perShard[best][heads[best]])
		heads[best]++
		if limit > 0 && len(ids) >= limit {
			break
		}
	}
	return ids
}
