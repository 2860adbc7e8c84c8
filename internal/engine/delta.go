package engine

import (
	"encoding/binary"
	"sync"

	"repro/internal/btree"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// DeltaTable is Δ^R: the timestamped change table for a base table or view.
// Rows carry the base schema plus the count and timestamp attributes of
// Section 2 of the paper, stored ordered by (timestamp, sequence) so that
// the window selection σ_{a,b} is a range scan.
//
// Base-table delta tables are appended by the capture process; view delta
// tables are appended by propagation-query transactions.
//
// Like its base table, a delta table can be hash-partitioned: with
// Partitions = N > 1, a change record lives in shard
// hashPart(row[partCol], N). The sequence counter stays global, so keys
// remain unique across shards and a merged iteration reproduces exactly
// the single-tree (timestamp, sequence) order; WindowSpec and SliceEmpty
// read the per-partition slices that partitioned propagation consumes.
type DeltaTable struct {
	base   string
	schema *tuple.Schema

	nparts  int
	partCol int

	latch  sync.RWMutex
	shards []*btree.Tree // (ts 8B BE, seq 8B BE) -> (count varint, row)
	seq    uint64
	pruned relalg.CSN // highest PruneThrough bound ever applied

	// onAppend, when set, is called after a successful append with the
	// record's partition, outside the latch (per-partition counters).
	onAppend func(part int)
}

func newDeltaTable(base string, schema *tuple.Schema, nparts, partCol int) *DeltaTable {
	if nparts < 1 {
		nparts = 1
	}
	shards := make([]*btree.Tree, nparts)
	for i := range shards {
		shards[i] = btree.New()
	}
	return &DeltaTable{base: base, schema: schema, nparts: nparts, partCol: partCol, shards: shards}
}

// Base returns the name of the table this delta describes.
func (d *DeltaTable) Base() string { return d.base }

// Schema returns the schema of the described table (count and timestamp are
// implicit, carried by the relation rows).
func (d *DeltaTable) Schema() *tuple.Schema { return d.schema }

// Partitions returns the delta table's hash-partition count.
func (d *DeltaTable) Partitions() int { return d.nparts }

// Len returns the number of stored delta rows.
func (d *DeltaTable) Len() int {
	d.latch.RLock()
	defer d.latch.RUnlock()
	n := 0
	for _, sh := range d.shards {
		n += sh.Len()
	}
	return n
}

// PartLen returns the number of stored delta rows in partition p.
func (d *DeltaTable) PartLen(p int) int {
	d.latch.RLock()
	defer d.latch.RUnlock()
	if p < 0 || p >= len(d.shards) {
		return 0
	}
	return d.shards[p].Len()
}

func deltaKey(ts relalg.CSN, seq uint64) []byte {
	// One spare byte of capacity so appending the shard to form the
	// Append/AppendEncoded handle extends in place instead of reallocating.
	b := make([]byte, 16, 17)
	binary.BigEndian.PutUint64(b[0:8], uint64(ts))
	binary.BigEndian.PutUint64(b[8:16], seq)
	return b
}

func encodeDeltaVal(count int64, row tuple.Tuple) []byte {
	out := binary.AppendVarint(nil, count)
	return tuple.EncodeRow(out, row)
}

func decodeDeltaVal(b []byte) (int64, tuple.Tuple) {
	count, n := binary.Varint(b)
	if n <= 0 {
		panic("engine: corrupt delta value")
	}
	row, _, err := tuple.DecodeRow(b[n:])
	if err != nil {
		panic("engine: corrupt delta row: " + err.Error())
	}
	return count, row
}

// partFor returns the shard a change record for row routes to.
func (d *DeltaTable) partFor(row tuple.Tuple) int {
	if d.nparts <= 1 {
		return 0
	}
	return hashPart(row[d.partCol], d.nparts)
}

// Append adds one change record with the given timestamp and count. It
// returns a handle that Remove accepts (for transactional undo).
func (d *DeltaTable) Append(ts relalg.CSN, count int64, row tuple.Tuple) (handle []byte) {
	d.latch.Lock()
	d.seq++
	part := d.partFor(row)
	k := deltaKey(ts, d.seq)
	d.shards[part].Put(k, encodeDeltaVal(count, row))
	note := d.onAppend
	d.latch.Unlock()
	if note != nil {
		note(part)
	}
	// The handle carries the shard so Remove routes without rehashing.
	return append(k, byte(part))
}

// AppendEncoded adds one change record whose row is already in
// tuple.EncodeRow form — the columnar propagation egress, which
// serializes straight from batch columns without materializing tuples.
// partVal must be the row's partition-column value (it routes the shard).
// The encoded row is copied into a fresh value buffer, so the caller may
// reuse encRow.
func (d *DeltaTable) AppendEncoded(ts relalg.CSN, count int64, encRow []byte, partVal tuple.Value) (handle []byte) {
	// One allocation per record, laid out [16-byte key | shard byte |
	// value]: the btree retains the key and value slices (it never
	// mutates them, so sharing one backing array is safe), and the
	// 17-byte prefix is the handle. The key's capacity is clamped so no
	// later append through it can reach the value bytes.
	buf := make([]byte, 17, 17+binary.MaxVarintLen64+len(encRow))
	buf = binary.AppendVarint(buf, count)
	buf = append(buf, encRow...)
	d.latch.Lock()
	d.seq++
	part := 0
	if d.nparts > 1 {
		part = hashPart(partVal, d.nparts)
	}
	binary.BigEndian.PutUint64(buf[0:8], uint64(ts))
	binary.BigEndian.PutUint64(buf[8:16], d.seq)
	buf[16] = byte(part)
	d.shards[part].Put(buf[:16:16], buf[17:])
	note := d.onAppend
	d.latch.Unlock()
	if note != nil {
		note(part)
	}
	return buf[:17]
}

// Remove deletes a previously appended record by handle (undo path).
func (d *DeltaTable) Remove(handle []byte) {
	d.latch.Lock()
	defer d.latch.Unlock()
	if len(handle) == 17 {
		d.shards[int(handle[16])].Delete(handle[:16])
		return
	}
	for _, sh := range d.shards {
		if sh.Delete(handle) {
			return
		}
	}
}

// ascendMerged iterates the union of the shard trees in key order (the
// global (timestamp, sequence) order), calling fn until it returns false.
// Keys are globally unique (one sequence counter), so the merged order is
// exactly the order of the unpartitioned single tree. Caller holds the
// latch.
func (d *DeltaTable) ascendMerged(start, end []byte, fn func(k, v []byte) bool) {
	if len(d.shards) == 1 {
		d.shards[0].Ascend(start, end, fn)
		return
	}
	its := make([]*btree.Iterator, 0, len(d.shards))
	for _, sh := range d.shards {
		var it *btree.Iterator
		if start == nil {
			it = sh.First()
		} else {
			it = sh.Seek(start)
		}
		if it.Valid() {
			its = append(its, it)
		}
	}
	for {
		best := -1
		for i, it := range its {
			if !it.Valid() {
				continue
			}
			if best < 0 || string(it.Key()) < string(its[best].Key()) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		it := its[best]
		if end != nil && string(it.Key()) >= string(end) {
			return
		}
		if !fn(it.Key(), it.Value()) {
			return
		}
		it.Next()
	}
}

// Window materializes σ_{lo,hi}: all rows with lo < ts <= hi, in timestamp
// order. The caller is responsible for ensuring the window is closed (the
// capture process has progressed past hi) so the result is immutable.
func (d *DeltaTable) Window(lo, hi relalg.CSN) *relalg.Relation {
	return d.WindowSpec(nil, lo, hi)
}

// WindowSpec materializes the slice of σ_{lo,hi} selected by spec (nil =
// the full window).
func (d *DeltaTable) WindowSpec(spec *PartSpec, lo, hi relalg.CSN) *relalg.Relation {
	out := relalg.NewRelation(d.schema)
	if hi <= lo {
		return out
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	start := deltaKey(lo+1, 0)
	end := deltaKey(hi+1, 0)
	pure := spec.sliced() && spec.N == d.nparts
	filter := spec.sliced() && !pure
	add := func(k, v []byte) bool {
		ts := relalg.CSN(binary.BigEndian.Uint64(k[0:8]))
		count, row := decodeDeltaVal(v)
		if filter && !spec.admits(row[d.partCol]) {
			return true
		}
		out.Add(row, count, ts)
		return true
	}
	if pure {
		d.shards[spec.Part].Ascend(start, end, add)
	} else {
		d.ascendMerged(start, end, add)
	}
	return out
}

// WindowEach streams σ_{lo,hi} in (timestamp, sequence) order without
// materializing a relation: fn receives each record's timestamp, count,
// and encoded row (valid only for the duration of the call — the
// consumer must copy bytes it keeps). The incremental aggregate operator
// folds upstream delta windows through it, decoding values in place. The
// latch is held across the iteration, so fn must not call back into the
// delta table.
func (d *DeltaTable) WindowEach(lo, hi relalg.CSN, fn func(ts relalg.CSN, count int64, encRow []byte) error) error {
	if hi <= lo {
		return nil
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	var err error
	d.ascendMerged(deltaKey(lo+1, 0), deltaKey(hi+1, 0), func(k, v []byte) bool {
		ts := relalg.CSN(binary.BigEndian.Uint64(k[0:8]))
		count, n := binary.Varint(v)
		if n <= 0 {
			panic("engine: corrupt delta value")
		}
		err = fn(ts, count, v[n:])
		return err == nil
	})
	return err
}

// SliceEmpty reports whether the slice of σ_{lo,hi} selected by spec has
// no rows (a cheap pre-check before spawning a per-partition propagation
// job).
func (d *DeltaTable) SliceEmpty(spec *PartSpec, lo, hi relalg.CSN) bool {
	if hi <= lo {
		return true
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	start := deltaKey(lo+1, 0)
	end := deltaKey(hi+1, 0)
	empty := true
	pure := spec.sliced() && spec.N == d.nparts
	filter := spec.sliced() && !pure
	probe := func(k, v []byte) bool {
		if filter {
			_, row := decodeDeltaVal(v)
			if !spec.admits(row[d.partCol]) {
				return true
			}
		}
		empty = false
		return false
	}
	if pure {
		d.shards[spec.Part].Ascend(start, end, probe)
	} else {
		d.ascendMerged(start, end, probe)
	}
	return empty
}

// All materializes the entire delta table in timestamp order.
func (d *DeltaTable) All() *relalg.Relation {
	out := relalg.NewRelation(d.schema)
	d.latch.RLock()
	defer d.latch.RUnlock()
	d.ascendMerged(nil, nil, func(k, v []byte) bool {
		ts := relalg.CSN(binary.BigEndian.Uint64(k[0:8]))
		count, row := decodeDeltaVal(v)
		out.Add(row, count, ts)
		return true
	})
	return out
}

// PruneThrough deletes all rows with ts <= hi and returns how many were
// removed. The apply process prunes view deltas it has applied; capture
// checkpoints prune base deltas below every view's materialization point.
func (d *DeltaTable) PruneThrough(hi relalg.CSN) int {
	d.latch.Lock()
	defer d.latch.Unlock()
	if hi > d.pruned {
		d.pruned = hi
	}
	n := 0
	end := deltaKey(hi+1, 0)
	for _, sh := range d.shards {
		var doomed [][]byte
		sh.Ascend(nil, end, func(k, _ []byte) bool {
			doomed = append(doomed, k)
			return true
		})
		for _, k := range doomed {
			sh.Delete(k)
		}
		n += len(doomed)
	}
	return n
}

// PrunedThrough returns the highest timestamp bound ever passed to
// PruneThrough: windows starting below it may be missing rows.
func (d *DeltaTable) PrunedThrough() relalg.CSN {
	d.latch.RLock()
	defer d.latch.RUnlock()
	return d.pruned
}

// PendingAfter counts rows with ts > after, stopping once limit rows have
// been seen (limit <= 0 counts all). It is the scheduler's backpressure
// probe — pending un-applied view-delta rows between the materialization
// time and the high-water mark — so it never materializes rows and walks
// at most limit entries.
func (d *DeltaTable) PendingAfter(after relalg.CSN, limit int) int {
	d.latch.RLock()
	defer d.latch.RUnlock()
	n := 0
	start := deltaKey(after+1, 0)
	for _, sh := range d.shards {
		sh.Ascend(start, nil, func(_, _ []byte) bool {
			n++
			return limit <= 0 || n < limit
		})
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// MaxTS returns the largest timestamp present (NullTS if empty).
func (d *DeltaTable) MaxTS() relalg.CSN {
	d.latch.RLock()
	defer d.latch.RUnlock()
	max := relalg.NullTS
	for _, sh := range d.shards {
		it := sh.Last()
		if !it.Valid() {
			continue
		}
		ts := relalg.CSN(binary.BigEndian.Uint64(it.Key()[0:8]))
		if max == relalg.NullTS || ts > max {
			max = ts
		}
	}
	return max
}
