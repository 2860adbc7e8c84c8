package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// A Derived is the one stored state of a maintained relation: its image
// (net contents at the materialization time MatTime) plus its own timed
// delta table. Apply rolls the image forward by folding the delta window
// (MatTime, t] in. A read at t computes the state from the image and the
// delta: forward by adding (MatTime, t], backward by subtracting
// (t, MatTime]. The readable range is [PrunedThrough, HWM]: below the
// delta's prune floor the rows a backward read needs are gone.
//
// One lock makes reads exact under concurrent maintenance: a read copies
// the image and folds its window under mu (shared), while apply and prune
// take mu exclusively. No read can observe an image and a delta that
// disagree about the window between them.
//
// Determinism: delta rows at or below the view's propagation high-water
// mark are immutable (propagation only appends rows above the HWM), so a
// read at t ≤ HWM always reproduces the same multiset. Callers that need a
// complete state gate on the HWM before scanning (the executor's
// WaitProgress call); ScanAsOf itself does not block.
//
// A registered Derived is also a relation the query layer can read: a
// materialized view appears as an InputBase position in a downstream
// propagation query, so views over views are planned, snapshot-read, and
// propagated through exactly the same machinery as views over base tables.
type Derived struct {
	name  string
	delta *DeltaTable
	hwm   func() relalg.CSN
	db    *DB // nil for an unregistered image

	// lastTouch is the unix-nano stamp of the last access (read, apply,
	// or image replacement); the cold-spill sweep compares it to its
	// idleness cutoff.
	lastTouch atomic.Int64

	mu        sync.RWMutex
	image     map[string]int64 // tuple.EncodeRow encoding -> net count
	matTime   relalg.CSN
	spilled   bool   // image serialized to spillPath, in-memory copy dropped
	spillPath string // set while spilled
}

// ErrNoSuchDerived marks lookups of unregistered derived relations.
var ErrNoSuchDerived = fmt.Errorf("engine: no such derived relation")

// ErrDerivedPruned is returned when a derived read targets a time below
// the delta's prune floor: the delta rows needed to roll the image back
// to that state are gone.
var ErrDerivedPruned = fmt.Errorf("engine: derived state pruned below requested time")

// ErrNegativeCount indicates a delta window drove some tuple's
// multiplicity negative — an invariant violation that means the delta was
// not a correct timed delta table.
var ErrNegativeCount = errors.New("engine: view tuple count went negative")

// NewDerived creates an empty image at time 0 over a delta table, without
// registering it as a readable relation: the form for images nothing
// downstream reads (union views, experiment drivers). hwm reports the
// propagation high-water mark, the time a NullTS read reads at.
func NewDerived(delta *DeltaTable, hwm func() relalg.CSN) *Derived {
	dv := &Derived{name: delta.Base(), delta: delta, hwm: hwm, image: make(map[string]int64)}
	dv.touch()
	return dv
}

// RegisterDerived creates a maintained view's image under its delta
// table's name (CreateStandaloneDelta under the view name) and registers
// it as a relation downstream queries read like a base table.
func (db *DB) RegisterDerived(delta *DeltaTable, hwm func() relalg.CSN) (*Derived, error) {
	name := delta.Base()
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
	dv := NewDerived(delta, hwm)
	dv.db = db
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
func (dv *Derived) Schema() *tuple.Schema { return dv.delta.Schema() }

// HWM returns the view's current propagation high-water mark.
func (dv *Derived) HWM() relalg.CSN { return dv.hwm() }

// MatTime returns the time the image reflects.
func (dv *Derived) MatTime() relalg.CSN {
	dv.mu.RLock()
	defer dv.mu.RUnlock()
	return dv.matTime
}

// SetImage replaces the image with rel's net effect at time t (the view's
// initial materialization) and prunes the delta through t: the image
// covers everything at or below it. A negative net count is rejected with
// ErrNegativeCount, leaving the image unchanged.
func (dv *Derived) SetImage(rel *relalg.Relation, t relalg.CSN) error {
	img := make(map[string]int64, rel.Len())
	var enc []byte
	for _, r := range rel.Rows {
		enc = tuple.EncodeRow(enc[:0], r.Tuple)
		addCount(img, string(enc), r.Count)
	}
	for k, c := range img {
		if c < 0 {
			return fmt.Errorf("%w: %s = %d at load", ErrNegativeCount, decodedRow(k), c)
		}
	}
	dv.mu.Lock()
	defer dv.mu.Unlock()
	dv.image = img
	dv.matTime = t
	if dv.spilled {
		// The fresh image supersedes any spilled copy.
		os.Remove(dv.spillPath)
		dv.spilled = false
		dv.spillPath = ""
	}
	dv.delta.PruneThrough(t)
	dv.touch()
	return nil
}

// ApplyThrough rolls the image forward to t by folding the delta window
// (MatTime, t] in, and returns the number of delta rows folded. It is all
// or nothing: the window is netted first, and if any tuple's count would
// go negative it returns ErrNegativeCount with the image unchanged. The
// caller checks t against the high-water mark.
func (dv *Derived) ApplyThrough(t relalg.CSN) (int, error) {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	if t <= dv.matTime {
		return 0, nil
	}
	if err := dv.loadLocked(); err != nil {
		return 0, err
	}
	net := make(map[string]int64)
	n, err := dv.foldWindow(net, dv.matTime, t, 1)
	if err != nil {
		return 0, err
	}
	for k, d := range net {
		if c := dv.image[k] + d; c < 0 {
			return 0, fmt.Errorf("%w: %s would become %d", ErrNegativeCount, decodedRow(k), c)
		}
	}
	for k, d := range net {
		addCount(dv.image, k, d)
	}
	dv.matTime = t
	dv.touch()
	return n, nil
}

// PruneThrough discards the delta rows at or below min(t, MatTime) and
// returns how many went. Reads below the new floor fail with
// ErrDerivedPruned, so callers must not prune past any downstream
// reader's high-water mark.
func (dv *Derived) PruneThrough(t relalg.CSN) int {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	if t > dv.matTime {
		t = dv.matTime
	}
	return dv.delta.PruneThrough(t)
}

// addCount adds d to img[k], dropping the entry when it nets to zero.
func addCount(img map[string]int64, k string, d int64) {
	if c := img[k] + d; c == 0 {
		delete(img, k)
	} else {
		img[k] = c
	}
}

// decodedRow renders an image key for error messages.
func decodedRow(k string) tuple.Tuple {
	row, _, _ := tuple.DecodeRow([]byte(k))
	return row
}

// foldWindow adds sign × each delta row of the window (lo, hi] into img,
// reading the stored encodings directly off the delta B+ tree (no tuples
// materialize), and returns the number of rows folded.
func (dv *Derived) foldWindow(img map[string]int64, lo, hi relalg.CSN, sign int64) (int, error) {
	n := 0
	err := dv.delta.WindowEach(lo, hi, func(_ relalg.CSN, count int64, encRow []byte) error {
		addCount(img, string(encRow), sign*count)
		n++
		return nil
	})
	return n, err
}

// rlockAt takes mu shared for a read at t, with the image resident. It
// fails with ErrDerivedPruned when t lies below the delta's prune floor,
// without reloading a spilled image. On success the caller holds the
// read lock.
func (dv *Derived) rlockAt(t relalg.CSN) error {
	dv.mu.RLock()
	for {
		if floor := dv.delta.PrunedThrough(); t < floor {
			dv.mu.RUnlock()
			return fmt.Errorf("%w: %q pruned through %d, asked for %d", ErrDerivedPruned, dv.name, floor, t)
		}
		if !dv.spilled {
			dv.touch()
			return nil
		}
		dv.mu.RUnlock()
		dv.mu.Lock()
		err := dv.loadLocked()
		dv.mu.Unlock()
		if err != nil {
			return err
		}
		dv.mu.RLock()
	}
}

// netAt computes the derived state at time t as encoded-row -> net count.
// t == NullTS reads the latest complete state (the propagation HWM).
func (dv *Derived) netAt(t relalg.CSN) (map[string]int64, error) {
	if t == relalg.NullTS {
		t = dv.hwm()
	}
	if err := dv.rlockAt(t); err != nil {
		return nil, err
	}
	defer dv.mu.RUnlock()
	img := make(map[string]int64, len(dv.image))
	for k, c := range dv.image {
		img[k] = c
	}
	var err error
	if t >= dv.matTime {
		_, err = dv.foldWindow(img, dv.matTime, t, 1)
	} else {
		_, err = dv.foldWindow(img, t, dv.matTime, -1)
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}

// relation decodes a net state into a relation in canonical form: one row
// per tuple with its net count and the null timestamp, sorted by tuple.
func (dv *Derived) relation(net map[string]int64) (*relalg.Relation, error) {
	out := relalg.NewRelation(dv.Schema())
	for k, c := range net {
		t, _, err := tuple.DecodeRow([]byte(k))
		if err != nil {
			return nil, fmt.Errorf("engine: corrupt derived row in %q: %w", dv.name, err)
		}
		out.Add(t, c, relalg.NullTS)
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Tuple.Compare(out.Rows[j].Tuple) < 0 })
	return out, nil
}

// Image returns the image at MatTime in canonical form.
func (dv *Derived) Image() (*relalg.Relation, error) {
	// No read at MatTime lies below the prune floor (PruneThrough clamps
	// to MatTime), so only a spilled image's reload can fail here.
	if err := dv.rlockAt(math.MaxInt64); err != nil {
		return nil, err
	}
	defer dv.mu.RUnlock()
	return dv.relation(dv.image)
}

// ScanAsOf materializes the derived state at time t as a relation in
// canonical form (rows carry their net counts and null timestamps, like a
// base-table scan). asOf == NullTS reads the HWM state.
func (dv *Derived) ScanAsOf(asOf relalg.CSN, pred relalg.Predicate) (*relalg.Relation, error) {
	net, err := dv.netAt(asOf)
	if err != nil {
		return nil, err
	}
	out, err := dv.relation(net)
	if err != nil {
		return nil, err
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
