package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	rollingjoin "repro"
	"repro/internal/repl"
	"repro/internal/wal"
)

// nodeConfig is what the load generator passes to a child node on its
// command line.
type nodeConfig struct {
	Workload string
	WAL      string // log file path; a follower keeps its shipped log in memory
	Leader   string // leader base URL; non-empty makes this node a follower
	Trace    bool
}

// node is one database process of the benchmark: a rollingjoin.DB opened
// through the root facade, the product's own HTTP handler on a TCP
// listener, and the benchmark-only /bench endpoints beside it.
type node struct {
	w    *workload
	db   *rollingjoin.DB
	rels *relations
	tr   *tracer // nil unless traced
	drv  *driver // nil unless traced
}

// runNode serves until SIGTERM/SIGINT or until standard input closes: the
// load generator holds the other end of that pipe, so a node never
// outlives it, however the generator dies.
func runNode(cfg nodeConfig) error {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return err
	}
	n := &node{w: w}
	follower := cfg.Leader != ""
	role := "leader"
	if follower {
		role = "follower"
	}
	if cfg.Trace {
		n.tr = &tracer{node: role}
	}

	opts := rollingjoin.Options{
		SyncOnCommit: w.Sync,
		Partitions:   w.Partitions,
		// The traced run folds from its own driver loop so that the fold
		// is a span and its cadence repeats.
		FoldDeltas: w.Fold && !cfg.Trace,
		Follower:   follower,
	}
	switch {
	case follower: // keeps its shipped log in memory
	case cfg.Trace:
		dev, err := wal.OpenFileDevice(cfg.WAL)
		if err != nil {
			return err
		}
		opts.Device = &timingDevice{Device: dev, tr: n.tr}
	default:
		opts.WALPath = cfg.WAL
	}
	n.db, err = rollingjoin.Open(opts)
	if err != nil {
		return err
	}
	defer n.db.Close()
	if err := w.createSchema(n.db); err != nil {
		return err
	}
	if n.rels, err = w.defineViews(n.db, cfg.Trace); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var bg sync.WaitGroup
	defer bg.Wait()
	defer stop() // runs before bg.Wait: background loops end on ctx

	handler := repl.NewServer(n.db).Handler()
	if cfg.Trace {
		n.drv = newDriver(n, follower)
		handler = traceHTTP(handler, n.tr, n.drv)
		bg.Add(1)
		go func() { defer bg.Done(); n.drv.run(ctx) }()
	}
	switch {
	case !follower:
	case cfg.Trace:
		bg.Add(1)
		go func() { defer bg.Done(); n.tailLoop(ctx, cfg.Leader) }()
	default:
		tailer := repl.NewTailer(n.db, cfg.Leader)
		tailer.Start()
		defer tailer.Stop()
	}

	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("GET /bench/wait", n.handleWait)
	mux.HandleFunc("GET /bench/stats", n.handleStats)
	mux.HandleFunc("GET /bench/verify", n.handleVerify)
	mux.HandleFunc("GET /bench/trace", n.handleTrace)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	fmt.Printf("LISTEN %s\n", lis.Addr())

	stdinClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	select {
	case <-ctx.Done():
	case <-stdinClosed:
	case err := <-errc:
		return err
	}
	// Close, not Shutdown: feed and WAL streams never end by themselves.
	return srv.Close()
}

// catchUp brings every maintained relation's high-water mark to csn.
func (n *node) catchUp(ctx context.Context, csn rollingjoin.CSN) error {
	if n.drv != nil {
		return n.drv.flushTo(ctx, csn)
	}
	for _, m := range n.rels.all {
		if err := m.WaitForHWMContext(ctx, csn); err != nil {
			return fmt.Errorf("%s: %w", m.Name(), err)
		}
	}
	return nil
}

func queryCSN(r *http.Request) (rollingjoin.CSN, error) {
	v, err := strconv.ParseInt(r.URL.Query().Get("csn"), 10, 64)
	return rollingjoin.CSN(v), err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleWait answers once every maintained relation has reached ?csn=.
func (n *node) handleWait(w http.ResponseWriter, r *http.Request) {
	csn, err := queryCSN(r)
	if err == nil {
		err = n.catchUp(r.Context(), csn)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// nodeStats is GET /bench/stats: the node's CPU time so far and the
// counters the product exposes at its layer boundaries, summed over the
// node's maintained relations.
type nodeStats struct {
	CPUMs   float64 `json:"cpu_ms"` // user+sys of this process so far
	WALSize int64   `json:"wal_size"`

	FwdQueries   int64 `json:"fwd_queries"`
	CompQueries  int64 `json:"comp_queries"`
	SkippedEmpty int64 `json:"skipped_empty"`
	DeltaRows    int64 `json:"delta_rows"` // view delta rows produced
	RowsApplied  int64 `json:"rows_applied"`
	RowsScanned  int64 `json:"rows_scanned"`
	IndexProbes  int64 `json:"index_probes"`
	HeavyKeys    int64 `json:"heavy_keys"`
	FoldedRows   int64 `json:"folded_rows"`
}

func tvMs(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }

func (n *node) stats() (nodeStats, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nodeStats{}, err
	}
	es := n.db.Engine().Stats()
	st := nodeStats{
		CPUMs:       tvMs(ru.Utime) + tvMs(ru.Stime),
		WALSize:     n.db.Engine().Log().Size(),
		RowsScanned: es.RowsScanned,
		IndexProbes: es.IndexProbes,
		HeavyKeys:   es.HeavyKeys,
		FoldedRows:  es.FoldedRows,
	}
	for _, v := range n.rels.views {
		vs := v.Stats()
		st.FwdQueries += vs.ForwardQueries
		st.CompQueries += vs.CompensationQueries
		st.SkippedEmpty += vs.SkippedEmptyWindows
		st.DeltaRows += vs.DeltaRowsProduced
		st.RowsApplied += vs.RowsApplied
	}
	for _, a := range n.rels.aggs {
		as := a.Stats()
		st.DeltaRows += as.DeltaRowsProduced
		st.RowsApplied += as.RowsApplied
	}
	return st, nil
}

func (n *node) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := n.stats()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// relationCheck is the verdict on one maintained relation.
type relationCheck struct {
	Name   string `json:"name"`
	Rows   int    `json:"rows"`
	Digest string `json:"digest"` // SHA-256 over the sorted wire-encoded rows
}

// verifyResponse is GET /bench/verify: every maintained relation compared
// with recomputation from the base tables, as of CSN.
type verifyResponse struct {
	OK        bool            `json:"ok"`
	Error     string          `json:"error,omitempty"`
	CSN       int64           `json:"csn"`
	Relations []relationCheck `json:"relations"`
}

// canon renders rows in the server's typed wire envelope, sorted, so two
// multisets compare byte for byte.
func canon(rows []rollingjoin.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, _ := json.Marshal(repl.EncodeRow(r)) // plain values cannot fail to marshal
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func digest(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		io.WriteString(h, r)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sameRows(name string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: maintained relation has %d rows, recomputation %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d is %s, recomputation has %s", name, i, got[i], want[i])
		}
	}
	return nil
}

// verify is the oracle. The caller has stopped writing. On a leader it
// first waits until maintenance is quiet too (propagation transactions
// mint CSNs of their own), then checks at the log's last CSN; a follower
// checks at the CSN the leader reported. With the base tables standing at
// that CSN, db.Query recomputes every relation as of it.
func (n *node) verify(ctx context.Context, csn rollingjoin.CSN) (*verifyResponse, error) {
	if n.db.IsFollower() {
		for n.db.AppliedCSN() < csn {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("follower applied CSN %d, want %d: %w", n.db.AppliedCSN(), csn, ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
		if err := n.catchUp(ctx, csn); err != nil {
			return nil, err
		}
	} else {
		for {
			csn = n.db.LastCSN()
			if err := n.catchUp(ctx, csn); err != nil {
				return nil, err
			}
			if n.db.LastCSN() == csn {
				break
			}
		}
	}
	resp := &verifyResponse{CSN: int64(csn)}
	for _, v := range n.rels.views {
		// Each relation is read at its own high-water mark, which is at or
		// past csn: the base tables no longer change, so recomputation is
		// the same at every CSN from csn on, and background folding may
		// already have moved the image past csn itself.
		rows, err := materializeAtHWM(v)
		if err != nil {
			return nil, err
		}
		spec := oracleSpecs[v.Name()]
		spec.Name = "oracle"
		want, err := n.db.Query(spec)
		if err != nil {
			return nil, fmt.Errorf("recompute %s: %w", v.Name(), err)
		}
		got := canon(rows)
		if err := sameRows(v.Name(), got, canon(want.Rows)); err != nil {
			return nil, err
		}
		if len(got) == 0 {
			return nil, fmt.Errorf("%s is empty: the workload did not exercise the join", v.Name())
		}
		resp.Relations = append(resp.Relations, relationCheck{Name: v.Name(), Rows: len(got), Digest: digest(got)})
	}
	for _, a := range n.rels.aggs {
		if _, err := a.Refresh(); err != nil {
			return nil, fmt.Errorf("refresh %s: %w", a.Name(), err)
		}
		if a.MatTime() < csn {
			return nil, fmt.Errorf("%s rolled to CSN %d, want at least %d", a.Name(), a.MatTime(), csn)
		}
		got := canon(a.Rows())
		want, err := n.recomputeRollup()
		if err != nil {
			return nil, err
		}
		if err := sameRows(a.Name(), got, want); err != nil {
			return nil, err
		}
		resp.Relations = append(resp.Relations, relationCheck{Name: a.Name(), Rows: len(got), Digest: digest(got)})
	}
	resp.OK = true
	return resp, nil
}

// materializeAtHWM reads the view at its current high-water mark, again
// if a fold pass moved the image past that mark in between.
func materializeAtHWM(v *rollingjoin.View) ([]rollingjoin.Tuple, error) {
	var err error
	for try := 0; try < 10; try++ {
		var rows []rollingjoin.Tuple
		hwm := v.HWM()
		if rows, err = v.MaterializeAt(hwm); err == nil {
			return rows, nil
		}
	}
	return nil, fmt.Errorf("materialize %s: %w", v.Name(), err)
}

// recomputeRollup evaluates rollupSpec from scratch: the enriched join by
// ad-hoc query, grouped here.
func (n *node) recomputeRollup() ([]string, error) {
	spec := enrichedSpec
	spec.Name = "oracle"
	res, err := n.db.Query(spec)
	if err != nil {
		return nil, fmt.Errorf("recompute rollup: %w", err)
	}
	type acc struct{ count, sum int64 }
	groups := map[string]*acc{}
	for _, row := range res.Rows { // columns: fid, fk2, amt, region
		g := groups[row[3].AsString()]
		if g == nil {
			g = &acc{}
			groups[row[3].AsString()] = g
		}
		g.count++
		g.sum += row[2].AsInt()
	}
	rows := make([]rollingjoin.Tuple, 0, len(groups))
	for region, g := range groups {
		rows = append(rows, rollingjoin.Tuple{rollingjoin.Str(region), rollingjoin.Int(g.count), rollingjoin.Float(float64(g.sum))})
	}
	return canon(rows), nil
}

func (n *node) handleVerify(w http.ResponseWriter, r *http.Request) {
	csn, _ := queryCSN(r) // absent on a leader
	resp, err := n.verify(r.Context(), csn)
	if err != nil {
		resp = &verifyResponse{Error: err.Error()}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (n *node) handleTrace(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, n.tr.spans())
}

// tailLoop is the traced follower's replacement for repl.Tailer: the same
// GET /v1/wal stream fed through ShipFrames, with a span around every
// chunk read and every shipment.
func (n *node) tailLoop(ctx context.Context, leader string) {
	for ctx.Err() == nil {
		err := n.tailOnce(ctx, leader)
		if ctx.Err() != nil {
			return
		}
		fmt.Fprintln(os.Stderr, "freshness node: tail:", err)
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (n *node) tailOnce(ctx context.Context, leader string) error {
	url := fmt.Sprintf("%s/v1/wal?from=%d", leader, n.db.ShippedOffset())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body := bufio.NewReaderSize(resp.Body, 64<<10)
	buf := make([]byte, 64<<10)
	for {
		start := time.Now()
		nr, err := body.Read(buf)
		if nr > 0 {
			n.tr.add("repl.ship", start, span{N: int64(nr)})
			start = time.Now()
			off, serr := n.db.ShipFrames(buf[:nr])
			if serr != nil {
				return fmt.Errorf("ship frames: %w", serr)
			}
			n.tr.add("follower.ship_frames", start, span{Off: off})
		}
		if err != nil {
			return err
		}
	}
}
