package exec

import (
	"sync"

	"repro/internal/relalg"
)

// Arena is a per-propagation-step recycler for the containers a
// pipeline churns through: batches and join hash tables. The engine
// acquires one arena per drain, threads it through the plan, and
// releases it afterwards; operators check containers back in at Close,
// so in steady state a propagation step re-runs entirely on storage the
// previous step already grew — the zero-allocation hot path.
//
// An arena is single-goroutine (one pipeline); the arenas themselves
// recycle through a sync.Pool so concurrent pipelines don't contend.
// All methods are nil-receiver safe: a nil arena falls back to the
// global batch pool, which keeps hand-built operator trees in tests
// working without one.
type Arena struct {
	batches []*relalg.Batch
	tables  []*relalg.HashTable
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// NewArena returns an arena, reusing a released one.
func NewArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// Release returns the arena (and everything checked back into it) to
// the shared pool. The caller must not use it afterwards.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	arenaPool.Put(a)
}

// Batch checks out a reset batch, growing a fresh one with the given
// capacity hint only when the freelist is empty.
func (a *Arena) Batch(size int) *relalg.Batch {
	if a == nil {
		return getBatch()
	}
	if n := len(a.batches); n > 0 {
		b := a.batches[n-1]
		a.batches = a.batches[:n-1]
		b.Reset()
		return b
	}
	return relalg.NewBatch(size)
}

// PutBatch checks a batch back in.
func (a *Arena) PutBatch(b *relalg.Batch) {
	if b == nil {
		return
	}
	if a == nil {
		putBatch(b)
		return
	}
	a.batches = append(a.batches, b)
}

// Table checks out a hash table re-keyed on cols.
func (a *Arena) Table(cols []int) *relalg.HashTable {
	if a != nil {
		if n := len(a.tables); n > 0 {
			t := a.tables[n-1]
			a.tables = a.tables[:n-1]
			t.Reset(cols)
			return t
		}
	}
	return relalg.NewHashTable(cols)
}

// PutTable checks a hash table back in.
func (a *Arena) PutTable(t *relalg.HashTable) {
	if a == nil || t == nil {
		return
	}
	a.tables = append(a.tables, t)
}

// Footprint returns the resident bytes of everything currently checked
// into the arena (stats; meaningful after the pipeline closed).
func (a *Arena) Footprint() int64 {
	if a == nil {
		return 0
	}
	var n int64
	for _, b := range a.batches {
		n += b.Footprint()
	}
	for _, t := range a.tables {
		n += t.Footprint()
	}
	return n
}
