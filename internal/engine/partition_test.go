package engine

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
	"repro/internal/tuple"
)

// TestPartSpecSlicesCoverWindow checks the PartSpec contract on both
// storage layouts: the N slices of a table scan and of a delta window are
// disjoint, each row lands in slice hashPart(row[0], N), their union is the
// unsliced input, and SliceEmpty agrees with the materialized slice. With
// storage partitioned the same N ways a slice reads its own shard; with
// unpartitioned storage every shard is read and rows are filtered by hash.
func TestPartSpecSlicesCoverWindow(t *testing.T) {
	const n = 4
	for _, storage := range []int{1, n} {
		t.Run(fmt.Sprintf("storage=%d", storage), func(t *testing.T) {
			db, err := Open(Config{Partitions: storage})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.CreateTable("r", ordersSchema())
			d, err := db.CreateDelta("r")
			if err != nil {
				t.Fatal(err)
			}
			last := seedRows(t, db, "r", 40)
			for i := relalg.CSN(1); i <= last; i++ {
				d.Append(i, 1, tuple.Tuple{tuple.Int(int64(i % 9)), tuple.String_("x")})
			}

			full := d.Window(0, last)
			var deltaUnion, scanUnion []relalg.Row
			for p := 0; p < n; p++ {
				spec := &PartSpec{N: n, Part: p}
				w := d.WindowSpec(spec, 0, last)
				if d.SliceEmpty(spec, 0, last) != (w.Len() == 0) {
					t.Fatalf("slice %d: SliceEmpty disagrees with %d window rows", p, w.Len())
				}
				tx := db.Begin()
				rel, err := tx.EvalQuery(&Query{Inputs: []Input{{Kind: InputBase, Table: "r", Part: spec}}})
				tx.Abort()
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range []*relalg.Relation{w, rel} {
					for _, row := range part.Rows {
						if got := hashPart(row.Tuple[0], n); got != p {
							t.Fatalf("slice %d holds row %v of partition %d", p, row.Tuple, got)
						}
					}
				}
				deltaUnion = append(deltaUnion, w.Rows...)
				scanUnion = append(scanUnion, rel.Rows...)
			}
			if !relalg.Equivalent(&relalg.Relation{Schema: full.Schema, Rows: deltaUnion}, full) {
				t.Fatal("delta slices do not reconstruct the window")
			}
			tx := db.Begin()
			all, err := tx.EvalQuery(&Query{Inputs: []Input{{Kind: InputBase, Table: "r"}}})
			tx.Abort()
			if err != nil {
				t.Fatal(err)
			}
			if len(scanUnion) != 40 || !relalg.Equivalent(&relalg.Relation{Schema: all.Schema, Rows: scanUnion}, all) {
				t.Fatalf("table slices hold %d rows and do not reconstruct the %d-row table", len(scanUnion), all.Len())
			}
		})
	}
}
