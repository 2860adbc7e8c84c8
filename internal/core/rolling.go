package core

import (
	"sync"

	"repro/internal/relalg"
)

// RollingPropagator is the rolling join propagation process of Figure 10.
// Unlike Propagate it advances each relation independently — n tuning
// knobs instead of one — so a hot relation can be propagated in small,
// cheap steps while a cold one is batched.
//
// The timestamp axis is cut into a single shared sequence of boundaries
// b_0 < b_1 < ... (b_0 = tInitial); cell c is the interval (b_c, b_{c+1}].
// Every relation walks the same cells, each at its own pace, and a Step
// executes exactly the position-i slice of the per-cell inclusion-
// exclusion expansion (ComputeDelta over the cell), with every query
// reading the base tables through the read view at the cell's upper
// boundary. Executed time equals intended time by construction, so a
// cell's contribution is complete — with exact timestamps — once all n
// position slices for it have run, regardless of the order relations
// reach it. The high-water mark is therefore simply the lowest boundary
// any relation still has pending.
//
// A new boundary is minted only when every relation has exhausted the
// existing ones; the minting relation's interval policy sets its width
// (clamped to capture progress), which is what makes the per-relation
// interval a genuine knob: whichever relation leads decides how finely
// the axis is cut for everyone, and small intervals mean small, short
// propagation transactions.
//
// Earlier revisions let each relation cut its own windows and deferred
// compensation through per-relation query lists (CompTime/ComInterval).
// With three or more relations that deferral can become cyclic — each
// position's window ends before the next change it would need to pair
// with, so a cross-relation change pair is never delivered at its
// effective time (the star-schema divergence repro). Shared cells make
// the deferral graph empty: pair delivery is resolved within one cell by
// the static expansion, never across steps.
//
// Step is intended for a single driver goroutine; HWM, TFwd, and Steps
// may be called concurrently from the apply process (the two processes
// are independent, Section 1).
type RollingPropagator struct {
	exec     *Executor
	interval IntervalPolicy

	mu sync.Mutex
	// bounds is the shared boundary sequence, strictly increasing;
	// bounds[0] is the low edge of the oldest unfinished cell. Fully
	// processed prefixes are compacted away.
	bounds []relalg.CSN
	// cell[i] indexes the next cell relation i will process: relation i
	// has completed every cell below cell[i], so its forward progress
	// tfwd[i] is bounds[cell[i]].
	cell  []int
	steps int64
}

// NewRollingPropagator creates a RollingPropagate process starting at
// tInitial for every relation.
func NewRollingPropagator(exec *Executor, tInitial relalg.CSN, interval IntervalPolicy) *RollingPropagator {
	n := exec.view.N()
	return &RollingPropagator{
		exec:     exec,
		interval: interval,
		bounds:   []relalg.CSN{tInitial},
		cell:     make([]int, n),
	}
}

// TFwd returns a copy of the per-relation forward progress: relation i's
// share of the view delta is complete through TFwd()[i].
func (r *RollingPropagator) TFwd() []relalg.CSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]relalg.CSN, len(r.cell))
	for i, c := range r.cell {
		out[i] = r.bounds[c]
	}
	return out
}

// HWM returns the view delta high-water mark: min over relations of their
// forward progress. Every cell below it has been processed by every
// relation, so the view delta restricted to (tInitial, HWM] is a timed
// delta table (Theorem 4.3).
func (r *RollingPropagator) HWM() relalg.CSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bounds[r.minCellLocked()]
}

// minCellLocked returns the lowest next-cell index. Caller holds mu.
func (r *RollingPropagator) minCellLocked() int {
	m := r.cell[0]
	for _, c := range r.cell[1:] {
		if c < m {
			m = c
		}
	}
	return m
}

// Steps returns the number of completed forward steps.
func (r *RollingPropagator) Steps() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.steps
}

// compactLocked drops boundary prefixes every relation has passed, so the
// ledger stays proportional to the propagation spread rather than the
// history length. Caller holds mu.
func (r *RollingPropagator) compactLocked() {
	m := r.minCellLocked()
	if m == 0 {
		return
	}
	r.bounds = r.bounds[m:]
	for i := range r.cell {
		r.cell[i] -= m
	}
}

// Step performs one iteration: it picks the relation with the least
// forward progress (lowest index on ties), mints a new cell from its
// interval policy if it has exhausted the shared ledger, and executes
// that relation's slice of the cell's expansion — the forward query
// Δ^i over the cell joined with all other relations at the cell's upper
// boundary, plus the compensation subtree re-expressing relations left of
// i at the lower boundary. It returns ErrNoProgress when capture has
// nothing new for that relation.
func (r *RollingPropagator) Step() error {
	r.mu.Lock()
	r.compactLocked()
	i := 0
	for j := 1; j < len(r.cell); j++ {
		if r.cell[j] < r.cell[i] {
			i = j
		}
	}
	c := r.cell[i]
	if c+1 >= len(r.bounds) {
		// Every relation has exhausted the ledger; mint the next boundary
		// from relation i's interval, clamped to capture progress.
		delta := r.interval(i)
		if delta <= 0 {
			delta = 1
		}
		last := r.bounds[len(r.bounds)-1]
		next := last + delta
		if progress := r.exec.src.Progress(); next > progress {
			next = progress
		}
		if next <= last {
			r.mu.Unlock()
			return ErrNoProgress
		}
		r.bounds = append(r.bounds, next)
	}
	w, hi := r.bounds[c], r.bounds[c+1]
	r.mu.Unlock()

	// If the cell's window on relation i is empty, the slice's forward
	// query and its whole compensation subtree vanish identically.
	if r.exec.SkipEmptyWindows {
		if err := r.exec.src.WaitProgress(hi); err != nil {
			return err
		}
		if r.exec.windowEmpty(i, w, hi) {
			r.exec.noteSkipped()
			r.mu.Lock()
			r.cell[i]++
			r.steps++
			r.mu.Unlock()
			return nil
		}
	}

	// Position i's slice of ComputeDelta(V, [w,...,w], hi): the forward
	// query executes through the read view at hi, and compensation
	// re-expresses every relation left of i at w. Delta windows are
	// immutable once capture passes hi, so slices of the same cell may run
	// in any order (and concurrently with slices of other cells).
	tauOld := make([]relalg.CSN, len(r.cell))
	for j := range tauOld {
		tauOld[j] = w
	}
	// With a partitioned engine the step decomposes into independent
	// per-partition slice jobs that fan out to the scheduler pool and
	// merge under the shared boundary ledger: cell[i] advances once,
	// below, after every slice has completed.
	if specs := r.exec.sliceSpecs(i); len(specs) > 0 {
		if err := r.exec.propagateSlices(AllBase(r.exec.view), tauOld, hi, i, specs); err != nil {
			return err
		}
	} else if err := r.exec.propagatePosition(AllBase(r.exec.view), tauOld, hi, 0, i); err != nil {
		return err
	}

	r.mu.Lock()
	r.cell[i]++
	r.steps++
	r.mu.Unlock()
	return nil
}

// There is deliberately no Run loop here: continuous propagation is
// scheduled by internal/sched (event-driven on capture notifications).
// When Step returns ErrNoProgress every relation sits at the last minted
// boundary, so HWM() equals that boundary and capture progress reaching
// HWM()+1 is exactly the event that unblocks the next Step.
