package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/relalg"
)

// This file provides the engine's leaf operators for the exec pipeline:
// streaming scans over base-table heaps and delta-table windows. Both hold
// their structure latch in read mode from Open to Close; that is safe
// because the planner has already taken the table-level S lock, so no
// writer of the scanned table can reach the latch while the scan streams,
// and concurrent propagation queries share the read latch.
//
// Both scans accept an optional PartSpec: a sliced scan reads only the
// matching hash shard, which is how a per-partition propagation job
// touches 1/N of the storage. An unsliced scan over a partitioned
// structure walks the shards one after another; relational consumers are
// multiset operators, so the shard-major order is immaterial (and with one
// shard it is exactly the seed order).
//
// Both scans are the columnar ingress: stored rows decode straight from
// their on-disk encodings into the output batch's column vectors (string
// payloads interning into the column dictionaries), then slice admission
// and pushdown predicates narrow the batch with its selection vector.
// Tuples are never materialized on this path.

// tableScan streams a base table's heap in batches, applying an optional
// pushdown predicate. Rows carry count +1 and the null timestamp, like
// Table.scan. With asOf == NullTS it streams the current state (the
// planner holds a table S lock); with a real asOf it streams the state
// visible at that CSN, lock-free under a ReadView.
type tableScan struct {
	db   *DB
	t    *Table
	pred relalg.Predicate
	asOf relalg.CSN
	spec *PartSpec

	shards     []*btree.Tree
	pure       bool // shards are hash-pure for spec (single matching shard)
	cur        int
	it         *btree.Iterator
	latched    bool
	scanned    int64
	fin, fkept int64 // pushdown-filter traffic (rows in, rows kept)
}

// Open implements exec.Operator.
func (s *tableScan) Open() error {
	s.t.latch.RLock()
	s.latched = true
	s.shards, s.pure = s.t.sliceShards(s.spec)
	s.cur = 0
	s.it = s.shards[0].First()
	return nil
}

// decodeVersionHeader splits a heap value into its version header and the
// still-encoded row payload (the columnar ingress does not materialize
// the tuple).
func decodeVersionHeader(v []byte) (born, dead relalg.CSN, enc []byte) {
	if len(v) < 16 {
		panic("engine: corrupt heap row: short version header")
	}
	born = relalg.CSN(binary.BigEndian.Uint64(v[0:8]))
	dead = relalg.CSN(binary.BigEndian.Uint64(v[8:16]))
	return born, dead, v[16:]
}

// Next implements exec.Operator.
func (s *tableScan) Next(out *relalg.Batch) (bool, error) {
	max := s.db.batchSize
	for {
		out.Reset()
		exhausted := false
		for out.Len() < max {
			if !s.it.Valid() {
				s.cur++
				if s.cur >= len(s.shards) {
					exhausted = true
					break
				}
				s.it = s.shards[s.cur].First()
				continue
			}
			born, dead, enc := decodeVersionHeader(s.it.Value())
			s.it.Next()
			if s.asOf == relalg.NullTS {
				if dead != csnNone {
					continue
				}
			} else if !visibleAt(born, dead, s.asOf) {
				continue
			}
			if _, err := out.AppendDecodedRow(enc, 1, relalg.NullTS); err != nil {
				return false, fmt.Errorf("engine: corrupt heap row: %w", err)
			}
		}
		if s.spec.sliced() && !s.pure {
			pc := s.t.partCol
			out.Retain(func(i int) bool { return s.spec.admits(out.ValueAt(i, pc)) })
		}
		if s.pred != nil {
			before := int64(out.Len())
			relalg.FilterBatch(s.pred, out)
			s.fin += before
			s.fkept += int64(out.Len())
		}
		s.scanned += int64(out.Len())
		if out.Len() > 0 {
			return true, nil
		}
		if exhausted {
			return false, nil
		}
	}
}

// Close implements exec.Operator.
func (s *tableScan) Close() error {
	if s.latched {
		s.latched = false
		s.t.latch.RUnlock()
		s.db.addScanned(s.scanned)
		s.db.addFilterStats(s.fin, s.fkept)
		if s.spec.sliced() {
			s.db.addPartScanned(s.spec.Part, s.spec.N, s.scanned)
		}
	}
	return nil
}

// deltaScan streams the delta-table window (lo, hi] in timestamp order,
// with the window bounds and the optional pushdown predicate applied
// directly at the scan — no intermediate relation is materialized. A
// sliced scan is the per-partition delta cursor: it seeks into just the
// slice's shard.
type deltaScan struct {
	db     *DB
	d      *DeltaTable
	lo, hi relalg.CSN
	pred   relalg.Predicate
	spec   *PartSpec

	shards     []*btree.Tree
	pure       bool
	cur        int
	it         *btree.Iterator
	start      []byte
	end        []byte
	latched    bool
	scanned    int64
	fin, fkept int64
}

// Open implements exec.Operator.
func (s *deltaScan) Open() error {
	if s.hi <= s.lo {
		return nil
	}
	s.d.latch.RLock()
	s.latched = true
	if s.spec.sliced() && s.spec.N == s.d.nparts {
		s.shards = s.d.shards[s.spec.Part : s.spec.Part+1]
		s.pure = true
	} else {
		s.shards = s.d.shards
	}
	s.start = deltaKey(s.lo+1, 0)
	s.end = deltaKey(s.hi+1, 0)
	s.cur = 0
	s.it = s.shards[0].Seek(s.start)
	return nil
}

// Next implements exec.Operator.
func (s *deltaScan) Next(out *relalg.Batch) (bool, error) {
	out.Reset()
	if !s.latched {
		return false, nil
	}
	max := s.db.batchSize
	for {
		out.Reset()
		exhausted := false
		for out.Len() < max {
			if !s.it.Valid() || string(s.it.Key()) >= string(s.end) {
				s.cur++
				if s.cur >= len(s.shards) {
					exhausted = true
					break
				}
				s.it = s.shards[s.cur].Seek(s.start)
				continue
			}
			ts := relalg.CSN(binary.BigEndian.Uint64(s.it.Key()[0:8]))
			v := s.it.Value()
			count, n := binary.Varint(v)
			if n <= 0 {
				panic("engine: corrupt delta value")
			}
			s.it.Next()
			if _, err := out.AppendDecodedRow(v[n:], count, ts); err != nil {
				return false, fmt.Errorf("engine: corrupt delta row: %w", err)
			}
		}
		if s.spec.sliced() && !s.pure {
			pc := s.d.partCol
			out.Retain(func(i int) bool { return s.spec.admits(out.ValueAt(i, pc)) })
		}
		if s.pred != nil {
			before := int64(out.Len())
			relalg.FilterBatch(s.pred, out)
			s.fin += before
			s.fkept += int64(out.Len())
		}
		s.scanned += int64(out.Len())
		if out.Len() > 0 {
			return true, nil
		}
		if exhausted {
			return false, nil
		}
	}
}

// Close implements exec.Operator.
func (s *deltaScan) Close() error {
	if s.latched {
		s.latched = false
		s.d.latch.RUnlock()
		s.db.addScanned(s.scanned)
		s.db.addFilterStats(s.fin, s.fkept)
		if s.spec.sliced() {
			s.db.addPartScanned(s.spec.Part, s.spec.N, s.scanned)
		}
	}
	return nil
}
