package rollingjoin

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestReadsSeeAckedCommitsUnderFold reads a view at its high-water mark
// while the fold job and a PruneApplied loop prune its delta underneath.
// Every read must see every acknowledged commit at or below that mark: a
// read copies the image and folds its delta window under one lock, which
// pruning also takes.
func TestReadsSeeAckedCommitsUnderFold(t *testing.T) {
	db := newTestDB(t, Options{FoldDeltas: true})
	if _, err := db.Update(func(tx *Tx) error { return tx.Insert("items", Str("ball"), Int(5)) }); err != nil {
		t.Fatal(err)
	}
	view, err := db.DefineView(orderPricesSpec(), Maintain{Interval: 1, AutoRefresh: true})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var acked []CSN // ascending: one writer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			csn, err := db.Update(func(tx *Tx) error { return tx.Insert("orders", Int(int64(i)), Str("ball")) })
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			acked = append(acked, csn)
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				view.PruneApplied()
			}
		}
	}()

	reads, short, pruned := 0, 0, 0
	for deadline := time.Now().Add(1500 * time.Millisecond); time.Now().Before(deadline); {
		h := view.HWM()
		rows, err := view.MaterializeAt(h)
		if errors.Is(err, engine.ErrDerivedPruned) {
			// Apply and a prune passed h after it was read: h is below
			// the readable range now, which is an answer, not a wrong one.
			pruned++
			continue
		}
		if err != nil {
			t.Fatalf("read at HWM %d: %v", h, err)
		}
		mu.Lock()
		want := sort.Search(len(acked), func(i int) bool { return acked[i] > h })
		mu.Unlock()
		reads++
		if len(rows) < want {
			short++
			if short <= 3 {
				t.Errorf("read at %d has %d rows, want at least %d acknowledged", h, len(rows), want)
			}
		}
	}
	t.Logf("%d reads, %d below the prune floor", reads, pruned)
	if short > 0 {
		t.Fatalf("%d of %d reads came back short", short, reads)
	}
	if st := db.Engine().Stats(); st.FoldedRows == 0 {
		t.Fatal("nothing was pruned: the test did not exercise the fold")
	}
}

// TestViewStoresOneImage checks that a maintained view holds its contents
// once: defining a 100k-row view grows the heap by the image alone.
func TestViewStoresOneImage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory skews heap figures")
	}
	const n = 100_000
	db := newTestDB(t, Options{})
	if _, err := db.Update(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("items", Str(fmt.Sprintf("item-%03d", i)), Int(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 10_000 {
		if _, err := db.Update(func(tx *Tx) error {
			for i := lo; i < lo+10_000; i++ {
				if err := tx.Insert("orders", Int(int64(i)), Str(fmt.Sprintf("item-%03d", i%100))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Capture the base deltas first so only the view's state is measured.
	if err := db.Source().WaitProgress(db.LastCSN()); err != nil {
		t.Fatal(err)
	}
	before := heapAlloc()
	view, err := db.DefineView(orderPricesSpec(), Maintain{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	grew := float64(heapAlloc()-before) / (1 << 20)
	if got := view.Cardinality(); got != n {
		t.Fatalf("view has %d rows, want %d", got, n)
	}
	t.Logf("DefineView grew HeapAlloc by %.1f MiB for %d rows", grew, n)
	if grew > 30 {
		t.Fatalf("DefineView grew HeapAlloc by %.1f MiB, want at most 30", grew)
	}
}

// heapAlloc reports live heap bytes after two collections.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
