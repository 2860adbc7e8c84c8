package metrics

import "runtime"

// AllocSampler reports heap-allocation deltas between successive samples,
// for attributing allocation churn to phases of a long run (rollload's
// periodic reports).
// It reads runtime.MemStats, which stops the world briefly; sample at
// reporting cadence, not per operation.
type AllocSampler struct {
	lastMallocs uint64
	lastBytes   uint64
}

// AllocSample is the change in allocation activity since the previous call.
type AllocSample struct {
	// Mallocs is the number of heap objects allocated in the interval.
	Mallocs uint64
	// Bytes is the number of heap bytes allocated in the interval.
	Bytes uint64
}

// NewAllocSampler returns a sampler primed at the current allocation
// counters, so the first Sample covers only activity after this call.
func NewAllocSampler() *AllocSampler {
	s := &AllocSampler{}
	s.Sample()
	return s
}

// Sample returns the allocation activity since the previous Sample (or
// since NewAllocSampler) and advances the baseline.
func (s *AllocSampler) Sample() AllocSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := AllocSample{
		Mallocs: ms.Mallocs - s.lastMallocs,
		Bytes:   ms.TotalAlloc - s.lastBytes,
	}
	s.lastMallocs = ms.Mallocs
	s.lastBytes = ms.TotalAlloc
	return out
}
