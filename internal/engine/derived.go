package engine

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// A Derived registers a maintained view's output as a relation the query
// layer can read: an immutable base image (the view's contents at the image
// time) plus the view's own timed delta table. The state visible at time t
// is the net effect of the image and the delta window (imageTime, t] — the
// same roll-forward rule the apply process uses, evaluated lazily per scan.
//
// Determinism: delta rows at or below the view's propagation high-water
// mark are immutable (propagation only appends rows above the HWM), so a
// scan at t ≤ HWM always reproduces the same multiset. Callers that need a
// complete state gate on the HWM before scanning (the executor's
// WaitProgress call); ScanAsOf itself does not block.
//
// This is what lets a materialized view appear as an InputBase position in
// a downstream propagation query: views over views are planned, snapshot-
// read, and propagated through exactly the same machinery as views over
// base tables.
type Derived struct {
	name   string
	schema *tuple.Schema
	delta  *DeltaTable
	hwm    func() relalg.CSN
	db     *DB

	// lastTouch is the unix-nano stamp of the last access (scan, image
	// replacement, or fold); the cold-spill sweep compares it to its
	// idleness cutoff.
	lastTouch atomic.Int64

	mu        sync.RWMutex
	image     map[string]int64 // tuple.EncodeRow encoding -> net count
	imageTime relalg.CSN
	spilled   bool   // image serialized to spillPath, in-memory copy dropped
	spillPath string // set while spilled
}

// ErrNoSuchDerived marks lookups of unregistered derived relations.
var ErrNoSuchDerived = fmt.Errorf("engine: no such derived relation")

// ErrDerivedPruned is returned when a derived scan targets a time below the
// image time: the delta rows needed to reconstruct that state were folded
// into the image (CompactThrough) and are gone.
var ErrDerivedPruned = fmt.Errorf("engine: derived state pruned below requested time")

// RegisterDerived registers a maintained view's output relation under its
// view name. The delta table must already be registered (typically via
// CreateStandaloneDelta under the same name); hwm reports the view's
// propagation high-water mark, which is the time a NullTS scan reads at.
func (db *DB) RegisterDerived(name string, schema *tuple.Schema, delta *DeltaTable, hwm func() relalg.CSN) (*Derived, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("%w: table %q shadows derived", ErrExists, name)
	}
	if db.derived == nil {
		db.derived = make(map[string]*Derived)
	}
	if _, ok := db.derived[name]; ok {
		return nil, fmt.Errorf("%w: derived %q", ErrExists, name)
	}
	dv := &Derived{
		name:   name,
		schema: schema,
		delta:  delta,
		hwm:    hwm,
		db:     db,
		image:  make(map[string]int64),
	}
	dv.touch()
	db.derived[name] = dv
	return dv, nil
}

// Derived looks up a registered derived relation.
func (db *DB) Derived(name string) (*Derived, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	dv, ok := db.derived[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchDerived, name)
	}
	return dv, nil
}

// derivedByName is the nil-on-miss lookup the planner uses on its
// InputBase fallback paths.
func (db *DB) derivedByName(name string) *Derived {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.derived[name]
}

// IsDerived reports whether name is a registered derived relation.
func (db *DB) IsDerived(name string) bool { return db.derivedByName(name) != nil }

// UnregisterDerived removes a derived registration (view drop). The delta
// table is removed separately with DropStandaloneDelta.
func (db *DB) UnregisterDerived(name string) {
	db.mu.Lock()
	delete(db.derived, name)
	db.mu.Unlock()
}

// DropStandaloneDelta removes a standalone (view) delta table registration
// so the name can be reused by a later view definition. It must not be
// called for base-table deltas (the capture process holds those).
func (db *DB) DropStandaloneDelta(name string) {
	db.mu.Lock()
	delete(db.deltas, name)
	db.mu.Unlock()
}

// Name returns the derived relation's name (the view name).
func (dv *Derived) Name() string { return dv.name }

// Schema returns the derived relation's output schema.
func (dv *Derived) Schema() *tuple.Schema { return dv.schema }

// HWM returns the view's current propagation high-water mark.
func (dv *Derived) HWM() relalg.CSN { return dv.hwm() }

// ImageTime returns the time of the base image: the floor below which
// derived state can no longer be reconstructed.
func (dv *Derived) ImageTime() relalg.CSN {
	dv.mu.RLock()
	defer dv.mu.RUnlock()
	return dv.imageTime
}

// SetImage replaces the base image with rel's net effect at time t (the
// view's initial materialization).
func (dv *Derived) SetImage(rel *relalg.Relation, t relalg.CSN) {
	img := make(map[string]int64, rel.Len())
	var enc []byte
	for _, r := range relalg.NetEffect(rel).Rows {
		enc = tuple.EncodeRow(enc[:0], r.Tuple)
		img[string(enc)] += r.Count
	}
	for k, c := range img {
		if c == 0 {
			delete(img, k)
		}
	}
	dv.mu.Lock()
	dv.image = img
	dv.imageTime = t
	if dv.spilled {
		// The fresh image supersedes any spilled copy.
		os.Remove(dv.spillPath)
		dv.spilled = false
		dv.spillPath = ""
	}
	dv.touch()
	dv.mu.Unlock()
}

// CompactThrough folds the delta window (imageTime, t] into the base image
// and advances the image time, enabling the window's delta rows to be
// pruned. Scans below the new image time fail with ErrDerivedPruned, so
// callers must not compact past any downstream reader's high-water mark.
func (dv *Derived) CompactThrough(t relalg.CSN) error {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	if t <= dv.imageTime {
		// Nothing to fold; a spilled image stays cold.
		return nil
	}
	if err := dv.loadLocked(); err != nil {
		return err
	}
	if err := dv.foldWindowLocked(dv.image, dv.imageTime, t); err != nil {
		return err
	}
	dv.imageTime = t
	dv.touch()
	return nil
}

// foldWindowLocked folds the delta window (lo, hi] into img, reading the
// stored encodings directly off the delta B+ trees (no tuples materialize).
func (dv *Derived) foldWindowLocked(img map[string]int64, lo, hi relalg.CSN) error {
	if hi <= lo {
		return nil
	}
	d := dv.delta
	d.latch.RLock()
	defer d.latch.RUnlock()
	end := deltaKey(hi+1, 0)
	for it := d.rows.Seek(deltaKey(lo+1, 0)); it.Valid() && string(it.Key()) < string(end); it.Next() {
		v := it.Value()
		count, n := binary.Varint(v)
		if n <= 0 {
			return fmt.Errorf("engine: corrupt delta value in derived %q", dv.name)
		}
		k := string(v[n:])
		if c := img[k] + count; c == 0 {
			delete(img, k)
		} else {
			img[k] = c
		}
	}
	return nil
}

// netAt computes the derived state at time t as encoded-row -> net count.
// t == NullTS reads the latest complete state (the propagation HWM).
func (dv *Derived) netAt(t relalg.CSN) (map[string]int64, error) {
	if t == relalg.NullTS {
		t = dv.hwm()
	}
	// Write mode, not read: a spilled image must be reloaded before the
	// copy, and loadLocked mutates.
	dv.mu.Lock()
	lo := dv.imageTime
	if t < lo {
		dv.mu.Unlock()
		return nil, fmt.Errorf("%w: %q image at %d, asked for %d", ErrDerivedPruned, dv.name, lo, t)
	}
	if err := dv.loadLocked(); err != nil {
		dv.mu.Unlock()
		return nil, err
	}
	dv.touch()
	img := make(map[string]int64, len(dv.image))
	for k, c := range dv.image {
		img[k] = c
	}
	dv.mu.Unlock()
	if err := dv.foldWindowLocked(img, lo, t); err != nil {
		return nil, err
	}
	return img, nil
}

// ScanAsOf materializes the derived state at time t as a relation (rows
// carry their net counts and null timestamps, like a base-table scan), for
// the materializing fallback executor. asOf == NullTS reads the HWM state.
func (dv *Derived) ScanAsOf(asOf relalg.CSN, pred relalg.Predicate) (*relalg.Relation, error) {
	net, err := dv.netAt(asOf)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(net))
	for k := range net {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := relalg.NewRelation(dv.schema)
	for _, k := range keys {
		t, _, err := tuple.DecodeRow([]byte(k))
		if err != nil {
			return nil, fmt.Errorf("engine: corrupt derived row in %q: %w", dv.name, err)
		}
		out.Add(t, net[k], relalg.NullTS)
	}
	if pred != nil {
		out = relalg.Select(out, pred)
	}
	return out, nil
}

// derivedScan streams a derived relation's state at asOf in batches: the
// columnar leaf operator behind an InputBase position that names a
// registered derived relation. The net state (image ⊕ delta window) is
// computed at Open; rows decode straight from their stored encodings into
// the output batch's columns, exactly like the base-table scan. Rows carry
// their net multiplicity and the null timestamp, so the count-product and
// min-timestamp combination rules treat a derived input like a base table.
type derivedScan struct {
	db   *DB
	dv   *Derived
	pred relalg.Predicate
	asOf relalg.CSN

	keys       []string
	net        map[string]int64
	pos        int
	scanned    int64
	fin, fkept int64
	opened     bool
}

// Open implements exec.Operator.
func (s *derivedScan) Open() error {
	net, err := s.dv.netAt(s.asOf)
	if err != nil {
		return err
	}
	s.net = net
	s.keys = make([]string, 0, len(net))
	for k := range net {
		s.keys = append(s.keys, k)
	}
	sort.Strings(s.keys)
	s.pos = 0
	s.opened = true
	return nil
}

// Next implements exec.Operator.
func (s *derivedScan) Next(out *relalg.Batch) (bool, error) {
	max := s.db.batchSize
	for {
		out.Reset()
		for out.Len() < max && s.pos < len(s.keys) {
			k := s.keys[s.pos]
			s.pos++
			if _, err := out.AppendDecodedRow([]byte(k), s.net[k], relalg.NullTS); err != nil {
				return false, fmt.Errorf("engine: corrupt derived row in %q: %w", s.dv.name, err)
			}
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
		if s.pos >= len(s.keys) {
			return false, nil
		}
	}
}

// Close implements exec.Operator.
func (s *derivedScan) Close() error {
	if s.opened {
		s.opened = false
		s.net = nil
		s.keys = nil
		s.db.addScanned(s.scanned)
		s.db.addFilterStats(s.fin, s.fkept)
	}
	return nil
}
