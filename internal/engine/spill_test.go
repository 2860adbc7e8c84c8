package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// spillTestDerived registers a derived relation with a 2-row image at CSN 5
// and one delta row at CSN 6, returning the db and the derived handle.
func spillTestDerived(t *testing.T) (*DB, *Derived) {
	t.Helper()
	db := testDB(t)
	schema := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindInt},
	)
	dest, err := db.CreateStandaloneDelta("v", schema)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := db.RegisterDerived("v", schema, dest, func() relalg.CSN { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	rel := relalg.NewRelation(schema)
	rel.Add(tuple.Tuple{tuple.Int(1), tuple.Int(10)}, 1, relalg.NullTS)
	rel.Add(tuple.Tuple{tuple.Int(2), tuple.Int(20)}, 2, relalg.NullTS)
	dv.SetImage(rel, 5)
	dest.Append(6, 1, tuple.Tuple{tuple.Int(3), tuple.Int(30)})
	return db, dv
}

// futureCutoff treats everything as idle.
func futureCutoff() time.Time { return time.Now().Add(time.Hour) }

func TestDerivedSpillAndReload(t *testing.T) {
	db, dv := spillTestDerived(t)
	dir := t.TempDir()

	before := db.Stats()
	if before.ImageResidentBytes == 0 {
		t.Fatal("resident image should have nonzero footprint")
	}
	n, err := db.SpillIdle(dir, futureCutoff())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("spilled %d objects, want 1", n)
	}
	if !dv.Spilled() {
		t.Fatal("image should be marked spilled")
	}
	st := db.Stats()
	if st.SpilledBytes == 0 {
		t.Fatal("SpilledBytes not accounted")
	}
	if st.ImageResidentBytes != 0 {
		t.Fatalf("spilled image still resident: %d bytes", st.ImageResidentBytes)
	}

	// A read above the image time reloads lazily and folds the window.
	rel, err := dv.ScanAsOf(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("reloaded scan has %d rows, want 3", rel.Len())
	}
	if dv.Spilled() {
		t.Fatal("image should be resident after reload")
	}
	st = db.Stats()
	if st.ColdLoads != 1 {
		t.Fatalf("ColdLoads = %d, want 1", st.ColdLoads)
	}
	if st.ImageResidentBytes == 0 {
		t.Fatal("reloaded image should count as resident again")
	}
	// The consumed spill file is gone; a second sweep respills it.
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill dir not empty after reload: %v", ents)
	}
	if n, err := db.SpillIdle(dir, futureCutoff()); err != nil || n != 1 {
		t.Fatalf("respill after reload: n=%d err=%v", n, err)
	}
}

func TestDerivedSpillScanBelowImageStaysCold(t *testing.T) {
	db, dv := spillTestDerived(t)
	dir := t.TempDir()
	if _, err := db.SpillIdle(dir, futureCutoff()); err != nil {
		t.Fatal(err)
	}
	// Below the image time the answer is gone regardless of residency —
	// report ErrDerivedPruned without paying a reload.
	if _, err := dv.ScanAsOf(3, nil); !errors.Is(err, ErrDerivedPruned) {
		t.Fatalf("scan below image time: want ErrDerivedPruned, got %v", err)
	}
	if !dv.Spilled() {
		t.Fatal("pruned-time scan should leave the image cold")
	}
	if st := db.Stats(); st.ColdLoads != 0 {
		t.Fatalf("ColdLoads = %d, want 0", st.ColdLoads)
	}
}

func TestDerivedSpillLost(t *testing.T) {
	for name, damage := range map[string]func(path string){
		"corrupt": func(path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				panic(err)
			}
			b[len(b)/2] ^= 0xFF
			os.WriteFile(path, b, 0o644)
		},
		"missing": func(path string) { os.Remove(path) },
	} {
		t.Run(name, func(t *testing.T) {
			db, dv := spillTestDerived(t)
			dir := t.TempDir()
			if _, err := db.SpillIdle(dir, futureCutoff()); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil || len(ents) != 1 {
				t.Fatalf("want one spill file, got %v (%v)", ents, err)
			}
			damage(filepath.Join(dir, ents[0].Name()))
			if _, err := dv.ScanAsOf(6, nil); !errors.Is(err, ErrSpillLost) {
				t.Fatalf("want ErrSpillLost, got %v", err)
			}
		})
	}
}

func TestCompactThroughLeavesColdImageCold(t *testing.T) {
	db, dv := spillTestDerived(t)
	dir := t.TempDir()
	if _, err := db.SpillIdle(dir, futureCutoff()); err != nil {
		t.Fatal(err)
	}
	// Compacting to (at or below) the image time is a no-op and must not
	// page the image back in.
	if err := dv.CompactThrough(5); err != nil {
		t.Fatal(err)
	}
	if !dv.Spilled() {
		t.Fatal("no-op compact should leave the image spilled")
	}
	// A real fold reloads, folds, and advances the image time.
	if err := dv.CompactThrough(6); err != nil {
		t.Fatal(err)
	}
	if dv.Spilled() {
		t.Fatal("fold should have reloaded the image")
	}
	if got := dv.ImageTime(); got != 6 {
		t.Fatalf("image time %d after fold, want 6", got)
	}
	if st := db.Stats(); st.ColdLoads != 1 {
		t.Fatalf("ColdLoads = %d, want 1", st.ColdLoads)
	}
}

// TestHorizonLedgerFloor pins and unpins named horizons and checks the
// floor composes the stable CSN, pins, and open snapshots.
func TestHorizonLedgerFloor(t *testing.T) {
	db := buildStar(t)
	led := db.Horizons()
	stable := db.StableCSN()
	if got := led.Floor(); got != stable {
		t.Fatalf("floor %d with no pins, want stable %d", got, stable)
	}
	led.Pin("checkpoint", 1)
	if got := led.Floor(); got != 1 {
		t.Fatalf("floor %d with pin at 1", got)
	}
	led.Pin("checkpoint", stable+100) // a pin above stable does not raise the floor
	if got := led.Floor(); got != stable {
		t.Fatalf("floor %d with high pin, want %d", got, stable)
	}
	snap, err := db.OpenSnapshot(relalg.NullTS)
	if err != nil {
		t.Fatal(err)
	}
	asOf := snap.AsOf()
	tx := db.Begin()
	tx.Insert("fact", tuple.Tuple{tuple.Int(99), tuple.Int(99)})
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := led.Floor(); got != asOf {
		t.Fatalf("floor %d with open snapshot at %d", got, asOf)
	}
	snap.Close()
	led.Unpin("checkpoint")
	if got := led.Floor(); got != db.StableCSN() {
		t.Fatalf("floor %d after unpin, want stable %d", got, db.StableCSN())
	}
}
