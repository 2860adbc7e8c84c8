package engine

import (
	"fmt"
	"sync"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// Index is a hash index over one column of a base table, mapping the
// column's key encoding to the rowids holding that value. Indexes
// accelerate propagation queries: a small delta window probes the index
// instead of scanning the whole base table (index nested-loop join).
//
// The index latch is separate from the table latch; writers update the
// table first, then the index, and readers holding a table S lock observe
// a consistent pair because writers hold their row X locks until commit.
type Index struct {
	table  string
	column int

	latch sync.RWMutex
	// rows maps key encoding -> rowid set.
	rows map[string]map[uint64]struct{}
}

func newIndex(table string, column int) *Index {
	return &Index{table: table, column: column, rows: make(map[string]map[uint64]struct{})}
}

// Column returns the indexed column position.
func (ix *Index) Column() int { return ix.column }

func (ix *Index) insert(v tuple.Value, rowid uint64) {
	k := string(tuple.EncodeKeyValue(nil, v))
	ix.latch.Lock()
	set := ix.rows[k]
	if set == nil {
		set = make(map[uint64]struct{})
		ix.rows[k] = set
	}
	set[rowid] = struct{}{}
	ix.latch.Unlock()
}

func (ix *Index) remove(v tuple.Value, rowid uint64) {
	k := string(tuple.EncodeKeyValue(nil, v))
	ix.latch.Lock()
	if set := ix.rows[k]; set != nil {
		delete(set, rowid)
		if len(set) == 0 {
			delete(ix.rows, k)
		}
	}
	ix.latch.Unlock()
}

// lookup returns the rowids whose indexed column equals v.
func (ix *Index) lookup(v tuple.Value) []uint64 {
	k := string(tuple.EncodeKeyValue(nil, v))
	ix.latch.RLock()
	defer ix.latch.RUnlock()
	set := ix.rows[k]
	if len(set) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}

// Len returns the number of distinct indexed keys.
func (ix *Index) Len() int {
	ix.latch.RLock()
	defer ix.latch.RUnlock()
	return len(ix.rows)
}

// CreateIndex builds a hash index on the named column of a base table,
// backfilling existing rows. It must be called before concurrent writers
// touch the table (typically right after CreateTable).
func (db *DB) CreateIndex(table, column string) (*Index, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	col := t.schema.Index(column)
	if col < 0 {
		return nil, fmt.Errorf("engine: no column %q in table %q", column, table)
	}
	t.latch.Lock()
	defer t.latch.Unlock()
	for _, ix := range t.indexes {
		if ix.column == col {
			return nil, fmt.Errorf("%w: index on %s.%s", ErrExists, table, column)
		}
	}
	ix := newIndex(table, col)
	for it := t.heap.First(); it.Valid(); it.Next() {
		_, _, row := decodeVersionedRow(it.Value())
		ix.insert(row[col], rowidFromKey(it.Key()))
	}
	t.indexes = append(t.indexes, ix)
	return ix, nil
}

// indexOn returns the table's index on the given column, if any.
func (t *Table) indexOn(col int) *Index {
	t.latch.RLock()
	defer t.latch.RUnlock()
	for _, ix := range t.indexes {
		if ix.column == col {
			return ix
		}
	}
	return nil
}

// probe materializes the current-state rows of t whose column matches v,
// applying the optional pushdown predicate. Latch-only; the caller holds
// a table S lock.
func (t *Table) probe(ix *Index, v tuple.Value, pred relalg.Predicate) []tuple.Tuple {
	return t.probeAsOf(ix, v, pred, relalg.NullTS)
}

// probeAsOf is probe against the snapshot at asOf (asOf == NullTS means
// current state). Snapshot probes are lock-free; the caller holds a
// ReadView at or above asOf.
func (t *Table) probeAsOf(ix *Index, v tuple.Value, pred relalg.Predicate, asOf relalg.CSN) []tuple.Tuple {
	ids := ix.lookup(v)
	if len(ids) == 0 {
		return nil
	}
	t.latch.RLock()
	defer t.latch.RUnlock()
	out := make([]tuple.Tuple, 0, len(ids))
	for _, id := range ids {
		val, ok := t.heap.Get(rowKey(id))
		if !ok {
			continue
		}
		born, dead, row := decodeVersionedRow(val)
		if asOf == relalg.NullTS {
			if dead != csnNone {
				continue
			}
		} else if !visibleAt(born, dead, asOf) {
			continue
		}
		if pred != nil && !pred.Eval(row) {
			continue
		}
		out = append(out, row)
	}
	return out
}
