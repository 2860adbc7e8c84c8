package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

const (
	// standardSeconds is the run length the workloads' fixed counts are
	// sized for (BENCHMARK.json run_seconds).
	standardSeconds = 20
	windows         = 5
	setupReps       = 3 // set-ups per untraced run; setup_s is their median
	sloP99Ms        = 250.0
)

// plan splits a run's measured seconds into phases.
type plan struct {
	Warmup   time.Duration
	Window   time.Duration
	Windows  int
	Capacity int // commits of the closed-loop capacity phase
	Setups   int
}

func planFor(w *workload, seconds int, short bool) plan {
	if short {
		// Smoke mode: every code path once, no claim on the numbers.
		return plan{Warmup: 300 * time.Millisecond, Window: 2 * time.Second, Windows: 1,
			Capacity: w.CapacityCommits / 8, Setups: 1}
	}
	s := float64(seconds)
	window := time.Duration(s * 0.16 * float64(time.Second))
	if period := w.Burst.On + w.Burst.Off; period > 0 {
		// whole burst periods per window, so every window carries the mean rate
		window = window / period * period
		if window == 0 {
			window = period
		}
	}
	return plan{
		Warmup:   time.Duration(s * 0.04 * float64(time.Second)),
		Window:   window,
		Windows:  windows,
		Capacity: int(float64(w.CapacityCommits) * s / standardSeconds),
		Setups:   setupReps,
	}
}

// report is everything one workload run measured.
type report struct {
	Workload string
	Seed     int64
	Traced   bool

	SetupS        float64
	SetupRuns     []float64
	SustainedPerS float64 // median capacity burst
	SustainedMin  float64
	SustainedMax  float64
	P50, P99      windowStat
	CPUMsPerCmt   float64
	Attempted     int64
	Failed        int64
	Late          lateness
	PeakRSSMiB    float64
	WALBytesPerC  float64
	Commits       int64 // acknowledged in capacity + freshness phases
	Reads         int64
	RowsPerRead   float64

	Layers map[string]float64 // per-layer metrics of a traced run
	Shares []layerShare
}

func (r *report) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// runner carries one workload run's state across its phases.
type runner struct {
	w      *workload
	p      plan
	trace  bool
	nconns int // load-issuing connections
	dir    string

	cl    *cluster
	conns []*conn
	obs   observer
	due   map[int64]time.Time // acknowledged CSN -> when its commit was due
	acked []int64             // every CSN acknowledged after set-up
}

func newRunner(w *workload, p plan, trace bool, dir string) *runner {
	r := &runner{w: w, p: p, trace: trace, nconns: w.Conns, dir: dir, due: map[int64]time.Time{}}
	if trace {
		// one connection, so that parent/child by interval containment is
		// exact and the counts repeat
		r.nconns = 1
	}
	return r
}

// setUp spawns the nodes, bulk-loads the base tables through
// POST /v1/commit, waits until every maintained relation on every node has
// caught up and attaches the observer after the load's last CSN.
func (r *runner) setUp(ctx context.Context, load [][]byte) error {
	cl, err := startCluster(r.dir, r.w, r.trace)
	if err != nil {
		return err
	}
	r.cl = cl
	for i := 0; i < r.nconns; i++ {
		r.conns = append(r.conns, newConn(cl.leader.url))
	}
	res := runClosedLoop(len(load), len(r.conns), func(c, i int) (int64, bool) {
		return r.conns[c].commit(load[i])
	})
	last := int64(0)
	for i, x := range res {
		if !x.OK {
			return fmt.Errorf("bulk-load commit %d failed", i)
		}
		last = max(last, x.CSN)
	}
	if err := cl.waitCaughtUp(ctx, last); err != nil {
		return fmt.Errorf("waiting for the load to propagate: %w", err)
	}
	switch url := cl.observed().url; r.w.Observe {
	case observeFeed:
		r.obs, err = newFeedObserver(url, r.w.View, last)
	case observeRead:
		r.obs = newReadObserver(url, r.w.View)
	}
	return err
}

// tearDown stops the observer, closes the connections and reaps the nodes.
func (r *runner) tearDown() {
	if r.obs != nil {
		r.obs.stop()
		r.obs = nil
	}
	for _, c := range r.conns {
		c.close()
	}
	r.conns = nil
	if r.cl != nil {
		r.cl.stop()
		r.cl = nil
	}
}

// commit sends one generated request on connection c and tells the
// observer about the acknowledgement.
func (r *runner) commit(c int, body []byte) (int64, bool) {
	csn, ok := r.conns[c].commit(body)
	if ok {
		r.obs.acked(csn)
	}
	return csn, ok
}

// note records the due time of every acknowledged commit of a phase and
// returns how many were sent, how many failed and the newest CSN.
func (r *runner) note(res []result) (sent, failed, last int64) {
	for _, x := range res {
		sent++
		if !x.OK {
			failed++
			continue
		}
		r.due[x.CSN] = x.Due
		r.acked = append(r.acked, x.CSN)
		last = max(last, x.CSN)
	}
	return sent, failed, last
}

// settle waits until the observation point shows last. The traced run's
// driver advances in whole cells, so there the wait first asks it to flush.
func (r *runner) settle(ctx context.Context, last int64) (time.Time, bool) {
	if r.trace {
		if err := r.cl.waitCaughtUp(ctx, last); err != nil {
			return time.Time{}, false
		}
	}
	return r.obs.visibleAt(last, visibleTimeout)
}

// warmUp runs the open loop at the workload's rate, unmeasured.
func (r *runner) warmUp(ctx context.Context, due []time.Duration, reqs [][]byte) error {
	res := runOpenLoop(time.Now(), due, len(r.conns), func(c, i int) (int64, bool) {
		return r.commit(c, reqs[i])
	}, time.Now, time.Sleep)
	_, _, last := r.note(res)
	if _, ok := r.settle(ctx, last); !ok {
		return errors.New("warm-up never became visible")
	}
	r.obs.samples()
	return nil
}

// capacityPhase sends a fixed count of commits, closed loop (next commit
// on ack), in as many equal bursts as there are windows. A burst's clock
// stops when the observation point shows its last commit, so a backlog
// left behind counts against the rate. The reported rate is the median
// burst's: one stall of the shared machine spoils one burst, not the run.
func (r *runner) capacityPhase(ctx context.Context, reqs [][]byte, rep *report) error {
	var rates []float64
	for b := 0; b < r.p.Windows; b++ {
		burst := reqs[b*len(reqs)/r.p.Windows : (b+1)*len(reqs)/r.p.Windows]
		start := time.Now()
		res := runClosedLoop(len(burst), len(r.conns), func(c, i int) (int64, bool) {
			return r.commit(c, burst[i])
		})
		sent, failed, last := r.note(res)
		end, ok := r.settle(ctx, last)
		if !ok {
			return fmt.Errorf("capacity phase: CSN %d not visible within %s", last, visibleTimeout)
		}
		rates = append(rates, float64(sent-failed)/end.Sub(start).Seconds())
		rep.Attempted += sent
		rep.Failed += failed
		rep.Commits += sent - failed
	}
	rep.SustainedPerS = median(rates)
	rep.SustainedMin, rep.SustainedMax = slices.Min(rates), slices.Max(rates)
	for _, s := range r.obs.samples() {
		if !s.OK {
			rep.Failed++
		}
	}
	return nil
}

// freshnessPhase runs the open loop at the workload's fixed rate over all
// windows back to back, every commit timed from when it was due, and reads
// the nodes' CPU time at every window boundary while the load runs.
func (r *runner) freshnessPhase(ctx context.Context, due []time.Duration, reqs [][]byte, rep *report) error {
	start := time.Now()
	cpuAt := make([]float64, r.p.Windows+1)
	var cpuErr error
	var cpuDone sync.WaitGroup
	cpuDone.Add(1)
	go func() {
		defer cpuDone.Done()
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * r.p.Window)))
			sum, _, err := r.cl.stats(ctx)
			if err != nil {
				cpuErr = err
				return
			}
			cpuAt[k] = sum.CPUMs
		}
	}()
	res := runOpenLoop(start, due, len(r.conns), func(c, i int) (int64, bool) {
		return r.commit(c, reqs[i])
	}, time.Now, time.Sleep)
	cpuDone.Wait()
	if cpuErr != nil {
		return cpuErr
	}
	rep.Late = latenessOf(res)
	sent, failed, last := r.note(res)
	rep.Attempted += sent
	rep.Failed += failed
	rep.Commits += sent - failed
	r.settle(ctx, last) // stragglers show up as failed samples below

	lat, unseen := windowLatencies(res, r.obs.samples(), r.due, start, r.p.Window, r.p.Windows)
	rep.Failed += unseen
	rep.P50 = acrossWindows(lat, 0.50)
	rep.P99 = acrossWindows(lat, 0.99)
	acks := make([]float64, r.p.Windows)
	for _, x := range res {
		if x.OK {
			acks[windowOf(x.Due, start, r.p.Window, r.p.Windows)]++
		}
	}
	var costs []float64
	for k, n := range acks {
		if n > 0 {
			costs = append(costs, (cpuAt[k+1]-cpuAt[k])/n)
		}
	}
	rep.CPUMsPerCmt = median(costs)
	return nil
}

// windowOf returns which of n windows of the given length, counted from
// start, the instant t falls into, clamped to the first and last.
func windowOf(t, start time.Time, window time.Duration, n int) int {
	return max(0, min(int(t.Sub(start)/window), n-1))
}

// windowLatencies sorts a freshness phase's outcomes into its windows by
// the time each commit was due, as latencies in milliseconds from that due
// time. A commit that was refused, and a sample whose commit never became
// visible, enter their window as +Inf, so they miss every latency limit;
// unseen counts the latter.
func windowLatencies(res []result, samples []sample, due map[int64]time.Time,
	start time.Time, window time.Duration, n int) (lat [][]float64, unseen int64) {
	lat = make([][]float64, n)
	for _, x := range res {
		if !x.OK {
			k := windowOf(x.Due, start, window, n)
			lat[k] = append(lat[k], math.Inf(1))
		}
	}
	for _, s := range samples {
		at := due[s.CSN]
		ms := math.Inf(1)
		if s.OK {
			ms = float64(s.Seen.Sub(at)) / float64(time.Millisecond)
		} else {
			unseen++
		}
		k := windowOf(at, start, window, n)
		lat[k] = append(lat[k], ms)
	}
	return lat, unseen
}

func runWorkload(ctx context.Context, w *workload, seed int64, seconds int, trace, short bool, dir string) (*report, error) {
	r := newRunner(w, planFor(w, seconds, short), trace, dir)
	if trace {
		r.p.Setups = 1
	}
	rep := &report{Workload: w.Name, Seed: seed, Traced: trace}
	defer r.tearDown()

	// Inputs come from the seed alone and are generated before anything is
	// timed.
	gen := newGenerator(w, seed)
	load := gen.load()
	freshDue := dueTimes(w.Rate, w.Burst, time.Duration(r.p.Windows)*r.p.Window)
	warmDue := dueTimes(w.Rate, w.Burst, r.p.Warmup)
	warm := gen.take(len(warmDue))
	capacity := gen.take(r.p.Capacity)
	fresh := gen.take(len(freshDue))

	var untracedPerS float64
	if trace && !short {
		// The traced run's sustained rate against that of an untraced
		// cluster driven the same way is the tracing overhead.
		ref := newRunner(w, r.p, false, dir)
		ref.nconns = r.nconns
		refRep := &report{}
		err := ref.setUp(ctx, load)
		if err == nil {
			err = ref.warmUp(ctx, warmDue, warm)
		}
		if err == nil {
			err = ref.capacityPhase(ctx, capacity, refRep)
		}
		ref.tearDown()
		if err != nil {
			return nil, fmt.Errorf("untraced reference: %w", err)
		}
		untracedPerS = refRep.SustainedPerS
	}

	// Set-up, several times; the last one is kept for the measurement.
	for i := 0; i < r.p.Setups; i++ {
		r.tearDown()
		start := time.Now()
		if err := r.setUp(ctx, load); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.SetupRuns = append(rep.SetupRuns, time.Since(start).Seconds())
	}
	rep.SetupS = median(rep.SetupRuns)

	if err := r.warmUp(ctx, warmDue, warm); err != nil {
		return nil, err
	}
	sum0, obs0, err := r.cl.stats(ctx)
	if err != nil {
		return nil, err
	}
	phaseStart := time.Now()
	if err := r.capacityPhase(ctx, capacity, rep); err != nil {
		return nil, err
	}
	if err := r.freshnessPhase(ctx, freshDue, fresh, rep); err != nil {
		return nil, err
	}
	sum1, obs1, err := r.cl.stats(ctx)
	if err != nil {
		return nil, err
	}
	rep.WALBytesPerC = float64(sum1.WALSize-sum0.WALSize) / float64(rep.Commits)
	for _, n := range r.cl.nodes() {
		rep.PeakRSSMiB += n.peakRSSMiB()
	}
	rep.Reads = r.obs.reads() // a failed read is counted through its sample
	rep.Attempted += rep.Reads
	if ro, ok := r.obs.(*readObserver); ok && ro.hits > 0 {
		rep.RowsPerRead = float64(ro.rows) / float64(ro.hits)
	}

	// The oracle. A mismatch fails the run; it is never folded into a
	// metric.
	if err := r.verify(ctx); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	if trace {
		if err := r.collectTrace(ctx, rep, phaseStart, obs0, obs1, untracedPerS); err != nil {
			return nil, err
		}
	}
	err = r.obs.stop()
	r.obs = nil
	return rep, err
}

// verify runs the oracle on every node, checks that no acknowledged CSN is
// missing from the observation stream, and, with a follower, that its
// relations equal the leader's byte for byte at the shared CSN.
func (r *runner) verify(ctx context.Context) error {
	if fo, ok := r.obs.(*feedObserver); ok {
		for _, csn := range r.acked {
			if _, seen := fo.seen(csn); !seen {
				return fmt.Errorf("acknowledged CSN %d never appeared in the changefeed", csn)
			}
		}
	}
	var checks []*verifyResponse
	at := int64(0) // the leader picks the CSN, the follower checks at the same one
	for _, n := range r.cl.nodes() {
		var v verifyResponse
		if err := getJSON(ctx, fmt.Sprintf("%s/bench/verify?csn=%d", n.url, at), &v); err != nil {
			return err
		}
		if !v.OK {
			return errors.New(v.Error)
		}
		at = v.CSN
		checks = append(checks, &v)
	}
	if len(checks) == 2 {
		lead, foll := checks[0].Relations, checks[1].Relations
		if len(lead) != len(foll) {
			return fmt.Errorf("leader has %d relations, follower %d", len(lead), len(foll))
		}
		for i := range lead {
			if lead[i] != foll[i] {
				return fmt.Errorf("follower differs from leader at CSN %d: %+v vs %+v", at, foll[i], lead[i])
			}
		}
	}
	return nil
}
