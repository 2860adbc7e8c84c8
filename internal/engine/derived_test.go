package engine

import (
	"errors"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// TestDerivedReadsRollBothWays reads an image at MatTime 7 forward and
// backward across its delta, and below the prune floor.
func TestDerivedReadsRollBothWays(t *testing.T) {
	_, dv := spillTestDerived(t) // image {(1,10), 2×(2,20)} at 5; +(3,30) at 6
	dv.delta.Append(7, -1, tuple.Tuple{tuple.Int(1), tuple.Int(10)})
	dv.delta.Append(8, 1, tuple.Tuple{tuple.Int(4), tuple.Int(40)})
	if n, err := dv.ApplyThrough(7); err != nil || n != 2 {
		t.Fatalf("apply through 7: n=%d err=%v", n, err)
	}
	card := func(at relalg.CSN) int64 {
		t.Helper()
		rel, err := dv.ScanAsOf(at, nil)
		if err != nil {
			t.Fatalf("read at %d: %v", at, err)
		}
		return rel.Cardinality()
	}
	for at, want := range map[relalg.CSN]int64{5: 3, 6: 4, 7: 3, 8: 4} {
		if got := card(at); got != want {
			t.Errorf("read at %d: %d rows, want %d", at, got, want)
		}
	}
	if img, err := dv.Image(); err != nil || img.Cardinality() != 3 {
		t.Fatalf("image at MatTime: %v %v", img, err)
	}
	if _, err := dv.ScanAsOf(4, nil); !errors.Is(err, ErrDerivedPruned) {
		t.Fatalf("read below the seed time: want ErrDerivedPruned, got %v", err)
	}
	// A prune stops at MatTime, however far it is asked to go.
	if n := dv.PruneThrough(100); n != 2 {
		t.Fatalf("pruned %d rows, want the 2 at or below MatTime", n)
	}
	if _, err := dv.ScanAsOf(6, nil); !errors.Is(err, ErrDerivedPruned) {
		t.Fatalf("read below the prune floor: want ErrDerivedPruned, got %v", err)
	}
	if got := card(8); got != 4 {
		t.Fatalf("read at 8 after prune: %d rows, want 4", got)
	}
}
