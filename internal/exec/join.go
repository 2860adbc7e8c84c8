package exec

import (
	"repro/internal/relalg"
	"repro/internal/tuple"
)

// HashJoin is the batched equi-join operator. One child (chosen by
// BuildLeft) is drained into a columnar hash table at Open; the other
// streams through, probing chain-wise: hash straight off the probe
// batch's columns, Seek/Next/Match down the bucket chain, and append
// matches as column moves. The output row layout is always left ⧺ right
// with the paper's combination rule (count product, min non-null
// timestamp), regardless of which side is built, so the planner can put
// the hash table on the small delta side and stream the large base scan
// without disturbing the schema. With no conditions it degenerates to a
// cross product. An empty build side short-circuits: the probe child is
// never even opened.
type HashJoin struct {
	Left, Right Operator
	On          []relalg.JoinOn
	// BuildLeft selects the build side: true hashes Left and streams Right.
	BuildLeft bool
	// Size caps probe-batch rows; 0 means DefaultBatchSize.
	Size int
	// A, when set, recycles the probe batch and hash table.
	A *Arena

	ht          *relalg.HashTable
	probe       Operator
	probeCols   []int
	buildCols   []int
	in          *relalg.Batch
	probeOpened bool
	done        bool
}

// Open implements Operator: it fully drains the build side.
func (j *HashJoin) Open() error {
	if cap(j.buildCols) < len(j.On) {
		j.buildCols = make([]int, len(j.On))
		j.probeCols = make([]int, len(j.On))
	}
	j.buildCols = j.buildCols[:len(j.On)]
	j.probeCols = j.probeCols[:len(j.On)]
	build := j.Right
	j.probe = j.Left
	for i, c := range j.On {
		j.buildCols[i], j.probeCols[i] = c.RightCol, c.LeftCol
	}
	if j.BuildLeft {
		build = j.Left
		j.probe = j.Right
		for i, c := range j.On {
			j.buildCols[i], j.probeCols[i] = c.LeftCol, c.RightCol
		}
	}
	j.done = false
	j.ht = j.A.Table(j.buildCols)
	j.in = j.A.Batch(batchSize(j.Size))

	if err := build.Open(); err != nil {
		build.Close()
		return err
	}
	for {
		ok, err := build.Next(j.in)
		if err != nil {
			build.Close()
			return err
		}
		if !ok {
			break
		}
		j.ht.InsertBatch(j.in)
	}
	if err := build.Close(); err != nil {
		return err
	}
	if j.ht.Len() == 0 {
		// Identically empty join: never touch the probe side.
		j.done = true
		return nil
	}
	j.ht.Finalize()
	if err := j.probe.Open(); err != nil {
		return err
	}
	j.probeOpened = true
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next(out *relalg.Batch) (bool, error) {
	out.Reset()
	if j.done {
		return false, nil
	}
	store := j.ht.Store()
	for {
		ok, err := j.probe.Next(j.in)
		if err != nil {
			return false, err
		}
		if !ok {
			j.done = true
			return out.Len() > 0, nil
		}
		n := j.in.Len()
		for pi := 0; pi < n; pi++ {
			h := j.in.HashAt(pi, j.probeCols)
			for i := j.ht.Seek(h); i >= 0; i = j.ht.Next(i) {
				if !j.ht.Match(i, h, j.in, pi, j.probeCols) {
					continue
				}
				if j.BuildLeft {
					out.AppendJoined(store, int(i), j.in, pi)
				} else {
					out.AppendJoined(j.in, pi, store, int(i))
				}
			}
		}
		if out.Len() >= 1 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.A.PutTable(j.ht)
	j.ht = nil
	j.A.PutBatch(j.in)
	j.in = nil
	if j.probeOpened {
		j.probeOpened = false
		return j.probe.Close()
	}
	return nil
}

// IndexLoopJoin streams its left child and, for each row, probes a base
// table through ProbeFn (an index lookup the engine supplies). Matches are
// base-table rows — count one, null timestamp — so the combined row keeps
// the left row's count and timestamp per the product and minimum rules.
// This operator subsumes the engine's former ad-hoc indexJoin special case.
type IndexLoopJoin struct {
	Left Operator
	// LeftCol is the probe key column within the left row.
	LeftCol int
	// ProbeFn returns the matching base rows for a key value.
	ProbeFn func(v tuple.Value) []tuple.Tuple
	// Size caps left-batch rows; 0 means DefaultBatchSize.
	Size int
	// A, when set, recycles the left batch.
	A *Arena

	in   *relalg.Batch
	done bool
}

// Open implements Operator.
func (j *IndexLoopJoin) Open() error {
	j.done = false
	j.in = j.A.Batch(batchSize(j.Size))
	return j.Left.Open()
}

// Next implements Operator.
func (j *IndexLoopJoin) Next(out *relalg.Batch) (bool, error) {
	out.Reset()
	if j.done {
		return false, nil
	}
	for {
		ok, err := j.Left.Next(j.in)
		if err != nil {
			return false, err
		}
		if !ok {
			j.done = true
			return out.Len() > 0, nil
		}
		n := j.in.Len()
		for li := 0; li < n; li++ {
			for _, m := range j.ProbeFn(j.in.ValueAt(li, j.LeftCol)) {
				out.AppendConcatTuple(j.in, li, m)
			}
		}
		if out.Len() >= 1 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (j *IndexLoopJoin) Close() error {
	j.A.PutBatch(j.in)
	j.in = nil
	return j.Left.Close()
}
