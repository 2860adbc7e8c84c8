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
type DeltaTable struct {
	base   string
	schema *tuple.Schema

	latch  sync.RWMutex
	rows   *btree.Tree // (ts 8B BE, seq 8B BE) -> (count varint, row)
	seq    uint64
	pruned relalg.CSN // highest PruneThrough bound ever applied
}

func newDeltaTable(base string, schema *tuple.Schema) *DeltaTable {
	return &DeltaTable{base: base, schema: schema, rows: btree.New()}
}

// Base returns the name of the table this delta describes.
func (d *DeltaTable) Base() string { return d.base }

// Schema returns the schema of the described table (count and timestamp are
// implicit, carried by the relation rows).
func (d *DeltaTable) Schema() *tuple.Schema { return d.schema }

// Len returns the number of stored delta rows.
func (d *DeltaTable) Len() int {
	d.latch.RLock()
	defer d.latch.RUnlock()
	return d.rows.Len()
}

func deltaKey(ts relalg.CSN, seq uint64) []byte {
	b := make([]byte, 16)
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

// Append adds one change record with the given timestamp and count. It
// returns a handle that Remove accepts (for transactional undo).
func (d *DeltaTable) Append(ts relalg.CSN, count int64, row tuple.Tuple) (handle []byte) {
	d.latch.Lock()
	defer d.latch.Unlock()
	d.seq++
	k := deltaKey(ts, d.seq)
	d.rows.Put(k, encodeDeltaVal(count, row))
	return k
}

// AppendEncoded adds one change record whose row is already in
// tuple.EncodeRow form — the columnar propagation egress, which
// serializes straight from batch columns without materializing tuples.
// The encoded row is copied into a fresh value buffer, so the caller may
// reuse encRow.
func (d *DeltaTable) AppendEncoded(ts relalg.CSN, count int64, encRow []byte) (handle []byte) {
	// One allocation per record, laid out [16-byte key | value]: the
	// btree retains the key and value slices (it never mutates them, so
	// sharing one backing array is safe), and the key is the handle. Its
	// capacity is clamped so no later append through it can reach the
	// value bytes.
	buf := make([]byte, 16, 16+binary.MaxVarintLen64+len(encRow))
	buf = binary.AppendVarint(buf, count)
	buf = append(buf, encRow...)
	d.latch.Lock()
	defer d.latch.Unlock()
	d.seq++
	binary.BigEndian.PutUint64(buf[0:8], uint64(ts))
	binary.BigEndian.PutUint64(buf[8:16], d.seq)
	d.rows.Put(buf[:16:16], buf[16:])
	return buf[:16:16]
}

// Remove deletes a previously appended record by handle (undo path).
func (d *DeltaTable) Remove(handle []byte) {
	d.latch.Lock()
	defer d.latch.Unlock()
	d.rows.Delete(handle)
}

// Window materializes σ_{lo,hi}: all rows with lo < ts <= hi, in timestamp
// order. The caller is responsible for ensuring the window is closed (the
// capture process has progressed past hi) so the result is immutable.
func (d *DeltaTable) Window(lo, hi relalg.CSN) *relalg.Relation {
	out := relalg.NewRelation(d.schema)
	if hi <= lo {
		return out
	}
	d.latch.RLock()
	defer d.latch.RUnlock()
	d.rows.Ascend(deltaKey(lo+1, 0), deltaKey(hi+1, 0), func(k, v []byte) bool {
		count, row := decodeDeltaVal(v)
		out.Add(row, count, relalg.CSN(binary.BigEndian.Uint64(k[0:8])))
		return true
	})
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
	d.rows.Ascend(deltaKey(lo+1, 0), deltaKey(hi+1, 0), func(k, v []byte) bool {
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

// All materializes the entire delta table in timestamp order.
func (d *DeltaTable) All() *relalg.Relation {
	out := relalg.NewRelation(d.schema)
	d.latch.RLock()
	defer d.latch.RUnlock()
	d.rows.Ascend(nil, nil, func(k, v []byte) bool {
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
	var doomed [][]byte
	d.rows.Ascend(nil, deltaKey(hi+1, 0), func(k, _ []byte) bool {
		doomed = append(doomed, k)
		return true
	})
	for _, k := range doomed {
		d.rows.Delete(k)
	}
	return len(doomed)
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
	d.rows.Ascend(deltaKey(after+1, 0), nil, func(_, _ []byte) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n
}

// MaxTS returns the largest timestamp present (NullTS if empty).
func (d *DeltaTable) MaxTS() relalg.CSN {
	d.latch.RLock()
	defer d.latch.RUnlock()
	it := d.rows.Last()
	if !it.Valid() {
		return relalg.NullTS
	}
	return relalg.CSN(binary.BigEndian.Uint64(it.Key()[0:8]))
}
