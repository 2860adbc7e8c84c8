package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// partitionCounts are the partition configurations the partition tests
// sweep: unsliced, a power of two, and a non-power-of-two count (7) that
// exercises the rowid shard-bits rounding and uneven hash spread.
var partitionCounts = []int{1, 4, 7}

// TestPartitionedConcurrentWritersOracle is the concurrent-writers oracle
// extended across partition counts: rolling propagation with slice fan-out
// races a writer goroutine, then the rolled range is checked against the
// timed-delta oracle.
func TestPartitionedConcurrentWritersOracle(t *testing.T) {
	for _, parts := range partitionCounts {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("parts=%d/workers=%d", parts, workers), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(parts*10 + workers)))
				env := newEnvCfg(t, starView(fmt.Sprintf("vp%d_%d", parts, workers), 2),
					engine.Config{Partitions: parts})
				env.exec.SetWorkers(workers)
				rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(2, 5, 5))

				done := make(chan relalg.CSN)
				go func() {
					var last relalg.CSN
					for i := 0; i < 80; i++ {
						table := env.view.Relations[r.Intn(env.view.N())]
						k := int64(r.Intn(4))
						if r.Intn(3) == 0 {
							last = env.delete(table, k)
						} else {
							last = env.insert(table, k)
						}
					}
					done <- last
				}()

				var last relalg.CSN
				writerDone := false
				for !writerDone || rp.HWM() < last {
					select {
					case last = <-done:
						writerDone = true
					default:
					}
					if err := rp.Step(); err != nil && err != ErrNoProgress {
						t.Fatal(err)
					}
				}
				env.checkTimedDelta(0, rp.HWM())
			})
		}
	}
}

// TestPartitionedTimedDeltaQuickCheck runs randomized multi-op update
// histories through ComputeDelta at every partition count and checks the
// accumulated view delta against the timed-delta-table oracle
// (Definition 4.2). Multi-op transactions share one CSN, so same-timestamp
// rows split across delta shards must still reassemble into one boundary.
func TestPartitionedTimedDeltaQuickCheck(t *testing.T) {
	for _, parts := range partitionCounts {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(7000 + parts)))
			env := newEnvCfg(t, chainView(fmt.Sprintf("vq%d", parts), 3),
				engine.Config{Partitions: parts})
			env.exec.SetWorkers(2)
			var last relalg.CSN
			for i := 0; i < 15; i++ {
				last = env.multiOpTxn(r, 1+r.Intn(4), 6)
			}
			if err := env.cap.WaitProgress(last); err != nil {
				t.Fatal(err)
			}
			if err := env.exec.ComputeDelta(AllBase(env.view), []relalg.CSN{0, 0, 0}, last); err != nil {
				t.Fatal(err)
			}
			env.checkTimedDelta(0, last)
		})
	}
}

// canonicalDelta renders a view delta table as a sorted multiset of
// (ts, tuple, count) lines — a partition-count-independent byte encoding.
// Slice fan-out may append a boundary's rows in any order (sequence
// numbers differ run to run), but the multiset of timed rows must not.
func canonicalDelta(d *engine.DeltaTable) []string {
	rel := d.All()
	lines := make([]string, 0, len(rel.Rows))
	var buf []byte
	for _, row := range rel.Rows {
		buf = tuple.EncodeRow(buf[:0], row.Tuple)
		lines = append(lines, fmt.Sprintf("%d|%d|%x", row.TS, row.Count, buf))
	}
	sort.Strings(lines)
	return lines
}

// TestPartitionTraceByteIdentical replays one seeded update history at
// every partition count and asserts the resulting view delta table is
// byte-identical to the single-partition trace: same timestamps, same
// tuples, same counts. DeleteWhere victim selection merges per-shard
// candidates by global sequence number, so the physical histories are
// identical and any divergence is a partitioning bug, not workload noise.
//
// The whole history commits before the drain, and the propagator runs
// unit intervals. Both matter for exact ts equality: propagation queries
// consume CSNs, so draining mid-history would shift later writer commits
// by however many queries each arm ran, and a boundary minted past the
// last writer CSN is clamped to capture progress — a value that depends
// on how many propagation commits capture has absorbed so far. With unit
// intervals every boundary lands on a writer CSN and the clamp never
// binds, making the boundary schedule a pure function of the history.
func TestPartitionTraceByteIdentical(t *testing.T) {
	var baseline []string
	for _, parts := range partitionCounts {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			r := rand.New(rand.NewSource(4242))
			env := newEnvCfg(t, starView("vtrace", 2), engine.Config{Partitions: parts})
			env.exec.SetWorkers(3)
			last := env.randomHistory(r, 60, 5)
			if err := env.cap.WaitProgress(last); err != nil {
				t.Fatal(err)
			}
			rp := NewRollingPropagator(env.exec, 0, PerRelationIntervals(1, 1, 1))
			drainRolling(t, rp, last)
			env.checkTimedDelta(0, rp.HWM())
			got := canonicalDelta(env.dest)
			if parts == 1 {
				baseline = got
				return
			}
			if len(got) != len(baseline) {
				t.Fatalf("parts=%d delta has %d rows, single-partition trace has %d",
					parts, len(got), len(baseline))
			}
			for i := range got {
				if got[i] != baseline[i] {
					t.Fatalf("parts=%d delta diverges from single-partition trace at row %d:\n got %s\nwant %s",
						parts, i, got[i], baseline[i])
				}
			}
		})
	}
}
