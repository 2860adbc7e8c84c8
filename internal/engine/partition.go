package engine

import (
	"hash/fnv"
	"math/bits"

	"repro/internal/tuple"
)

// Partitioning layer: every base table's version store and delta table can
// be hash-partitioned by join-key into N partitions. Partition 0..N-1 is
// chosen by an FNV hash of the key-encoded partition-column value, so a
// table and its delta (and any co-partitioned join peer sharing the key
// through an equality condition) agree on where a given key lives. N = 1
// is the unpartitioned seed behavior, byte for byte: a single shard with
// zero shard bits leaves rowids, delta keys, and iteration order exactly
// as before.

// hashPart maps a join-key value to a partition in [0, n) by an FNV hash
// of its key encoding.
func hashPart(v tuple.Value, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write(tuple.EncodeKeyValue(nil, v))
	return int(h.Sum64() % uint64(n))
}

// shardBitsFor returns how many low rowid bits encode the shard index for
// an n-way partitioned table (0 when n == 1, keeping rowids identical to
// the unpartitioned layout).
func shardBitsFor(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// PartSpec restricts a query input to one hash partition of its window. A
// nil spec (or N <= 1) means the full, unsliced input. The N slices of one
// propagation step are disjoint and cover the window, and multiset union
// over them reconstructs it, so running the same propagation query once
// per slice and merging the results is exactly the unsliced propagation
// step.
type PartSpec struct {
	N    int // partition count (0 or 1 = unsliced)
	Part int // hash partition index in [0, N)
}

// sliced reports whether the spec actually restricts the input.
func (s *PartSpec) sliced() bool { return s != nil && s.N > 1 }

// admits decides whether a row whose partition-column value is v belongs
// to this slice. Storage partitioned the same N ways needs no per-row
// check: reading the slice's own shard already selects it.
func (s *PartSpec) admits(v tuple.Value) bool {
	return !s.sliced() || hashPart(v, s.N) == s.Part
}

// coPartition extends the slice of a propagation query's introduced delta
// position to every other input whose partition column is connected to the
// sliced input's partition column through the query's equality conditions.
// Rows that join a sliced row must agree with it on the connected key, and
// equal keys hash to the same partition, so restricting those inputs to
// the same slice removes only rows that could never join — the query
// result is unchanged while each slice touches 1/N of the co-partitioned
// storage.
//
// The closure is computed over (input, column) pairs: two pairs are
// connected when a JoinCond equates them. An input joins the slice only
// via its own partition column, so mismatched join columns (a table
// partitioned on a column the query does not join) simply stay unsliced.
func (db *DB) coPartition(q *Query) {
	anchor := -1
	for i := range q.Inputs {
		if q.Inputs[i].Part.sliced() {
			anchor = i
			break
		}
	}
	if anchor < 0 {
		return
	}
	spec := q.Inputs[anchor].Part
	// Union-find over (input, col) pairs mentioned by the conditions plus
	// each input's partition column.
	type ref struct{ in, col int }
	parent := make(map[ref]ref)
	var find func(r ref) ref
	find = func(r ref) ref {
		p, ok := parent[r]
		if !ok || p == r {
			parent[r] = r
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	union := func(a, b ref) { parent[find(a)] = find(b) }
	for _, c := range q.Conds {
		union(ref{c.A.Input, c.A.Col}, ref{c.B.Input, c.B.Col})
	}
	partColOf := func(i int) (int, bool) {
		t, err := db.Table(q.Inputs[i].Table)
		if err != nil || t.nparts != spec.N {
			return 0, false
		}
		return t.partCol, true
	}
	acol, ok := partColOf(anchor)
	if !ok {
		return
	}
	root := find(ref{anchor, acol})
	for i := range q.Inputs {
		if i == anchor || q.Inputs[i].Part.sliced() {
			continue
		}
		col, ok := partColOf(i)
		if !ok {
			continue
		}
		if find(ref{i, col}) == root {
			q.Inputs[i].Part = spec
		}
	}
}
