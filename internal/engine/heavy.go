package engine

import (
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/tuple"
)

// Heavy/light key splitting (the skew-handling recipe of partitioned IVM):
// a per-table frequency sketch counts how often each join key appears in
// the table's change stream. Keys whose frequency crosses the heavy
// threshold are classified heavy and get their own dedicated propagation
// slices and materialized cache partitions, so one hot key cannot
// overload the hash partition it happens to land in; everything else
// rides the generic hash path. Counts decay geometrically, so keys
// migrate back to light as frequencies drift.
//
// The classifier and every structure it feeds (slice plans, cache
// shards) are volatile: physical delta and heap routing is purely
// hash-based, so a migration never rewrites durable state. That makes
// migration crash-safe by construction — after a crash the sketch
// restarts empty and resident state is rebuilt from the heaps and delta
// tables — but each migration still evaluates the "migrate" failpoint so
// the crash suite can kill the process mid-migration and check the
// invariant.
const (
	// sketchDecayEvery halves all counts after this many observations,
	// bounding the sketch and letting frequencies drift.
	sketchDecayEvery = 4096
	// heavyMinCount is the minimum absolute count before a key may be
	// classified heavy (avoids classifying on tiny samples).
	heavyMinCount = 16
	// heavyPromoteDen: promote when count*heavyPromoteDen >= total
	// (key carries at least 1/heavyPromoteDen of the change traffic).
	heavyPromoteDen = 8
	// heavyDemoteDen: demote when count*heavyDemoteDen < total. The gap
	// to heavyPromoteDen is the hysteresis band that prevents flapping.
	heavyDemoteDen = 16
)

// keySketch is the per-table frequency sketch plus the current heavy-key
// classification.
type keySketch struct {
	db    *DB
	table string

	mu         sync.Mutex
	counts     map[string]int64
	total      int64
	sinceDecay int64
	heavy      map[string]bool
}

func newKeySketch(db *DB, table string) *keySketch {
	return &keySketch{
		db:     db,
		table:  table,
		counts: make(map[string]int64),
		heavy:  make(map[string]bool),
	}
}

// note records one observation of a key-encoded join-key value and applies
// any classification change it triggers. Called from the delta append
// notification, outside the delta latch.
func (s *keySketch) note(enc []byte) {
	key := string(enc)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[key]++
	s.total++
	s.sinceDecay++
	if s.sinceDecay >= sketchDecayEvery {
		s.decayLocked()
	}
	c := s.counts[key]
	if !s.heavy[key] && c >= heavyMinCount && c*heavyPromoteDen >= s.total {
		if s.db.migrateKey(s.table, key, true) == nil {
			s.heavy[key] = true
		}
	} else if s.heavy[key] && c*heavyDemoteDen < s.total {
		if s.db.migrateKey(s.table, key, false) == nil {
			delete(s.heavy, key)
		}
	}
}

// decayLocked halves every count, dropping keys that reach zero, and
// demotes heavy keys that fell below the demotion threshold.
func (s *keySketch) decayLocked() {
	s.sinceDecay = 0
	total := int64(0)
	for k, c := range s.counts {
		c /= 2
		if c == 0 {
			delete(s.counts, k)
			continue
		}
		s.counts[k] = c
		total += c
	}
	s.total = total
	for k := range s.heavy {
		if s.counts[k]*heavyDemoteDen < s.total {
			if s.db.migrateKey(s.table, k, false) == nil {
				delete(s.heavy, k)
			}
		}
	}
}

// heavyKeys returns the current heavy classification as a sorted slice of
// key encodings (sorted so slice plans are deterministic for a given
// classification).
func (s *keySketch) heavyKeys() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.heavy) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.heavy))
	for k := range s.heavy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}

func (s *keySketch) heavyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heavy)
}

// migrateKey moves one join key of a table between the light (generic
// hash) and heavy (dedicated partition) classes. The move itself touches
// only volatile state: the classifier entry and any resident join-state
// cache buckets for the table. It evaluates the "migrate" failpoint
// first; an injected error aborts the migration (the caller keeps the old
// classification), and an injected crash exercises recovery with a
// half-finished migration — safe because nothing durable was touched.
func (db *DB) migrateKey(table, enc string, toHeavy bool) error {
	if fault.Enabled() {
		if err := fault.Inject(fault.PointMigrate); err != nil {
			return err
		}
	}
	db.cache.migrateKey(table, enc, toHeavy)
	db.keyMigrations.Add(1)
	return nil
}

// HeavySliceCached reports whether q should route through the join-state
// cache even when the global cache switch is off: a heavy-key slice reads
// its base positions from materialized partial state — the dedicated
// heavy partitions of the resident cache — while light slices ride the
// generic hash path (scans, or indexes where declared). This is the
// payoff of classifying a key heavy: its propagation cost becomes
// proportional to its delta, not to the shard it hashes into.
func (db *DB) HeavySliceCached(q *Query) bool {
	if !db.heavySplit {
		return false
	}
	for _, in := range q.Inputs {
		if in.Part != nil && len(in.Part.Key) > 0 {
			return true
		}
	}
	return false
}

// HeavyKeys returns the key-encoded heavy join keys currently classified
// for the named base table (nil when the table is unpartitioned, heavy
// splitting is disabled, or nothing is heavy yet). The slice is a
// snapshot: propagation takes it once per step so every slice of the step
// uses one consistent classification.
func (db *DB) HeavyKeys(table string) [][]byte {
	db.mu.RLock()
	s := db.sketches[table]
	db.mu.RUnlock()
	if s == nil {
		return nil
	}
	return s.heavyKeys()
}

// HeavyKeyValue decodes nothing — heavy keys are matched by encoding —
// but tests and tooling sometimes want the column value back.
func HeavyKeyValue(enc []byte) (tuple.Value, error) {
	v, _, err := tuple.DecodeKeyValue(enc)
	return v, err
}
