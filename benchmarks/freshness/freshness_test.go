package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {0.999, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly ten beyond
		{999, 0.99, false},
		{2240, 0.99, true},
		{100, 0.90, true},
		{99, 0.90, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

func TestMedianAcrossWindows(t *testing.T) {
	window := func(n int, base float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = base + float64(i)
		}
		return w
	}
	// Five windows whose medians are 60, 10, 40, 20, 30: the reported value
	// is the middle one, with the extremes as the spread.
	ws := [][]float64{window(101, 10), window(101, -40), window(101, -10), window(101, -30), window(101, -20)}
	st := acrossWindows(ws, 0.50)
	if st.Median != 30 || st.Min != 10 || st.Max != 60 {
		t.Errorf("got median %v min %v max %v, want 30 10 60", st.Median, st.Min, st.Max)
	}
	if st.Samples != 101 || !st.Supported {
		t.Errorf("samples %d supported %v, want 101 true", st.Samples, st.Supported)
	}
	if st := acrossWindows(ws, 0.99); st.Supported {
		t.Error("p99 of 101 samples has one sample beyond it and must not count as supported")
	}
	// One short window decides Samples and Supported for the whole set.
	ws[2] = window(15, 0)
	if st := acrossWindows(ws, 0.50); st.Samples != 15 || st.Supported {
		t.Errorf("short window: samples %d supported %v, want 15 false", st.Samples, st.Supported)
	}
	// A failed operation is +Inf and drags the tail, not the median.
	ws = [][]float64{append(window(99, 1), math.Inf(1))}
	if got := acrossWindows(ws, 0.50).Median; got != 50 {
		t.Errorf("median with one failure = %v, want 50", got)
	}
	if got := acrossWindows(ws, 0.999).Median; !math.IsInf(got, 1) {
		t.Errorf("tail with one failure = %v, want +Inf", got)
	}
}

func TestRelIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := relIQR(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
}

// fakeClock is a clock that only moves when someone sleeps on it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueAndCountsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	due := dueTimes(100, burst{}, 100*time.Millisecond) // every 10 ms: 0, 10, ... 90
	if len(due) != 10 {
		t.Fatalf("got %d due times, want 10", len(due))
	}
	// Operation 2 stalls the only connection for 45 ms.
	res := runOpenLoop(start, due, 1, func(conn, i int) (int64, bool) {
		if i == 2 {
			clk.sleep(45 * time.Millisecond)
		}
		return int64(i + 1), true
	}, clk.now, clk.sleep)
	for i, r := range res {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !r.Due.Equal(want) {
			t.Errorf("op %d due %v, want %v: latency must run from the schedule, not the send", i, r.Due, want)
		}
	}
	// 2 is sent on time at 20 ms and returns at 65 ms; 3..6 were due at
	// 30..60 ms and all go out at 65 ms; 7 (due 70 ms) is on time again.
	wantLate := []time.Duration{0, 0, 0, 35, 25, 15, 5, 0, 0, 0}
	for i, r := range res {
		if got := r.Sent.Sub(r.Due) / time.Millisecond; got != wantLate[i] {
			t.Errorf("op %d sent %d ms late, want %d", i, got, wantLate[i])
		}
	}
	if l := latenessOf(res); l.MaxMs != 35 {
		t.Errorf("max lateness %v ms, want 35", l.MaxMs)
	}
}

func TestBurstScheduleKeepsMeanRate(t *testing.T) {
	b := burst{On: 200 * time.Millisecond, Off: 600 * time.Millisecond}
	d := 3200 * time.Millisecond
	due := dueTimes(250, b, d)
	if want := int(250 * d.Seconds()); len(due) != want {
		t.Fatalf("%d commits in %v, want %d (mean 250/s)", len(due), d, want)
	}
	for i, at := range due {
		if phase := at % (b.On + b.Off); phase >= b.On {
			t.Fatalf("commit %d due %v into its period, inside the off time", i, phase)
		}
		if i > 0 && at < due[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	// inside a burst the rate is four times the mean
	if gap := due[1] - due[0]; gap != time.Second/1000 {
		t.Errorf("gap inside a burst %v, want 1ms", gap)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{Name: "repl.commit", Node: "leader", CSN: 7, Start: ms(0), End: ms(10), Parent: -1},
		{Name: "wal.append", Node: "leader", Start: ms(2), End: ms(3), Parent: -1},
		{Name: "wal.sync", Node: "leader", Start: ms(3), End: ms(8), Parent: -1},
		{Name: "core.propagate", Node: "leader", CSN: 7, Start: ms(10), End: ms(20), Parent: -1},
		{Name: "wal.append", Node: "leader", Start: ms(12), End: ms(16), Parent: -1},
		{Name: "wal.sync", Node: "leader", Start: ms(14), End: ms(18), Parent: -1},   // overlaps its sibling
		{Name: "wal.append", Node: "leader", Start: ms(30), End: ms(31), Parent: -1}, // no parent: DDL
		{Name: "wal.append", Node: "follower", Start: ms(4), End: ms(5), Parent: -1}, // other node
	}
	linkParents(spans)
	wantParent := []int{-1, 0, 0, -1, 3, 3, -1, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	if spans[1].CSN != 7 || spans[2].CSN != 7 {
		t.Error("log writes inside a commit must inherit its CSN")
	}
	self := selfTimes(spans)
	if got := self[0]; got != 4*time.Millisecond {
		t.Errorf("repl.commit self %v, want 4ms (10 - 1 - 5)", got)
	}
	if got := self[3]; got != 4*time.Millisecond {
		t.Errorf("core.propagate self %v, want 4ms (10 minus the 6 ms its overlapping children cover)", got)
	}
	if got := self[2]; got != 5*time.Millisecond {
		t.Errorf("leaf self %v, want its own 5ms", got)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		collect := func(seed int64) [][]byte {
			g := newGenerator(w, seed)
			return append(g.load(), g.take(500)...)
		}
		a, b, other := collect(42), collect(42), collect(43)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests from one seed", w.Name, len(a), len(b))
		}
		differs := false
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two generators with the same seed", w.Name, i)
			}
			if i < len(other) && !bytes.Equal(a[i], other[i]) {
				differs = true
			}
			var req struct {
				Ops []json.RawMessage `json:"ops"`
			}
			if err := json.Unmarshal(a[i], &req); err != nil || len(req.Ops) == 0 {
				t.Fatalf("%s: request %d is not a commit body: %v\n%s", w.Name, i, err, a[i])
			}
		}
		if !differs {
			t.Errorf("%s: another seed produced the same requests", w.Name)
		}
	}
}

func TestStarStreamAlwaysChangesTheView(t *testing.T) {
	w, err := findWorkload("star-fanout")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w, 1)
	g.load()
	for d := range g.heavy {
		if len(g.heavy[d]) != heavyKeys || len(g.light[d]) == 0 {
			t.Fatalf("dimension %d: %d heavy and %d light keys", d+1, len(g.heavy[d]), len(g.light[d]))
		}
	}
	g.take(3 * w.Deletable)
	if g.nextDel > int64(w.Deletable) {
		t.Errorf("stream deleted %d rows, only %d are deletable", g.nextDel, w.Deletable)
	}
}

func TestFailedAndNeverVisibleAccounting(t *testing.T) {
	start := time.Unix(2000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	res := []result{
		{Due: at(0), CSN: 11, OK: true},
		{Due: at(500), OK: false}, // refused by the server
		{Due: at(1500), CSN: 12, OK: true},
		{Due: at(1900), CSN: 13, OK: true},
	}
	due := map[int64]time.Time{11: at(0), 12: at(1500), 13: at(1900)}
	samples := []sample{
		{CSN: 11, Seen: at(4), OK: true},
		{CSN: 12, Seen: at(1507), OK: true},
		{CSN: 13, OK: false}, // acknowledged, never showed at the observation point
	}
	lat, unseen := windowLatencies(res, samples, due, start, time.Second, 2)
	if unseen != 1 {
		t.Errorf("unseen = %d, want 1", unseen)
	}
	if len(lat[0]) != 2 || len(lat[1]) != 2 {
		t.Fatalf("window sizes %d and %d, want 2 and 2", len(lat[0]), len(lat[1]))
	}
	count := func(w []float64) (inf int, finite []float64) {
		for _, v := range w {
			if math.IsInf(v, 1) {
				inf++
			} else {
				finite = append(finite, v)
			}
		}
		return
	}
	if inf, fin := count(lat[0]); inf != 1 || len(fin) != 1 || fin[0] != 4 {
		t.Errorf("window 0 = %v, want one 4 ms sample and one +Inf for the refused commit", lat[0])
	}
	if inf, fin := count(lat[1]); inf != 1 || len(fin) != 1 || fin[0] != 7 {
		t.Errorf("window 1 = %v, want one 7 ms sample and one +Inf for the unseen commit", lat[1])
	}
}

func TestPlanScalesWithSeconds(t *testing.T) {
	for _, w := range workloads {
		p := planFor(w, standardSeconds, false)
		if p.Windows != 5 || p.Capacity != w.CapacityCommits || p.Setups != setupReps {
			t.Errorf("%s: standard plan %+v", w.Name, p)
		}
		total := p.Warmup + time.Duration(p.Windows)*p.Window
		if total > standardSeconds*time.Second {
			t.Errorf("%s: open-loop phases take %v of %d s", w.Name, total, standardSeconds)
		}
		if period := w.Burst.On + w.Burst.Off; period > 0 && p.Window%period != 0 {
			t.Errorf("%s: window %v is not a whole number of burst periods", w.Name, p.Window)
		}
		if n := int(w.Rate * p.Window.Seconds()); !supported(n, 0.90) {
			t.Errorf("%s: %d samples per window do not support p90", w.Name, n)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the tables in main.go
// and workloads.go saying the same thing.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the repository root:", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != standardSeconds {
		t.Errorf("run_seconds %d, harness standard %d", spec.RunSeconds, standardSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, harness %+v", i, got, m)
		}
	}
}
