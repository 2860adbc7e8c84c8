package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// child is one node process spawned by the load generator.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser // closing it tells the node to exit
	url   string
}

// cluster is the set of nodes of one workload run with their scratch
// directory. Ports are ephemeral; the WAL lives under dir.
type cluster struct {
	dir      string
	leader   *child
	follower *child // nil unless the workload runs one
}

// live tracks running clusters so that a signal can reap them.
var live struct {
	sync.Mutex
	set map[*cluster]bool
}

func spawnNode(cfg nodeConfig) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-role", "node", "-workload", cfg.Workload,
		"-wal", cfg.WAL, "-leader", cfg.Leader, "-trace", trace)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
	if err != nil || !ok {
		c.stop()
		return nil, fmt.Errorf("node did not report its address (got %q): %v", line, err)
	}
	c.url = "http://" + addr
	return c, nil
}

// stop ends the node and waits for it: first by closing its standard
// input, then, if it lingers, by killing it.
func (c *child) stop() {
	c.stdin.Close()
	done := make(chan struct{})
	go func() { c.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
}

// peakRSSMiB reads the node's peak resident set size from /proc.
func (c *child) peakRSSMiB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// startCluster spawns the workload's nodes under a fresh directory of base.
func startCluster(base string, w *workload, trace bool) (*cluster, error) {
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	cl := &cluster{dir: dir}
	live.Lock()
	if live.set == nil {
		live.set = map[*cluster]bool{}
	}
	live.set[cl] = true
	live.Unlock()
	cl.leader, err = spawnNode(nodeConfig{Workload: w.Name, WAL: filepath.Join(dir, "leader.wal"), Trace: trace})
	if err != nil {
		cl.stop()
		return nil, fmt.Errorf("spawn leader: %w", err)
	}
	if w.Follower {
		cl.follower, err = spawnNode(nodeConfig{Workload: w.Name, Leader: cl.leader.url, Trace: trace})
		if err != nil {
			cl.stop()
			return nil, fmt.Errorf("spawn follower: %w", err)
		}
	}
	return cl, nil
}

// stop reaps the nodes (follower first, so its tailer does not log a lost
// leader) and removes the scratch directory.
func (cl *cluster) stop() {
	if cl.follower != nil {
		cl.follower.stop()
	}
	if cl.leader != nil {
		cl.leader.stop()
	}
	os.RemoveAll(cl.dir)
	live.Lock()
	delete(live.set, cl)
	live.Unlock()
}

// stopAll reaps every running cluster; the signal handler's exit path.
func stopAll() {
	live.Lock()
	var all []*cluster
	for cl := range live.set {
		all = append(all, cl)
	}
	live.Unlock()
	for _, cl := range all {
		cl.stop()
	}
}

func (cl *cluster) nodes() []*child {
	if cl.follower != nil {
		return []*child{cl.leader, cl.follower}
	}
	return []*child{cl.leader}
}

// observed is the node the workload watches for visibility.
func (cl *cluster) observed() *child {
	if cl.follower != nil {
		return cl.follower
	}
	return cl.leader
}

// conn is one load-issuing connection: a client that holds a single TCP
// connection to the leader and is used by a single goroutine.
type conn struct {
	client *http.Client
	url    string
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: visibleTimeout}, url: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends body and returns the response body when the status is 200.
func (c *conn) post(path string, body []byte) ([]byte, bool) {
	resp, err := c.client.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, err == nil && resp.StatusCode == http.StatusOK
}

// commit posts one commit and returns the CSN it was acknowledged with.
func (c *conn) commit(body []byte) (int64, bool) {
	data, ok := c.post("/v1/commit", body)
	if !ok {
		return 0, false
	}
	csn := jsonInt(data, "csn")
	return csn, csn > 0
}

// getJSON fetches a /bench endpoint of a node into v.
func getJSON(ctx context.Context, url string, v any) error {
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
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitCaughtUp blocks until every maintained relation of every node has
// reached csn.
func (cl *cluster) waitCaughtUp(ctx context.Context, csn int64) error {
	for _, n := range cl.nodes() {
		if err := getJSON(ctx, fmt.Sprintf("%s/bench/wait?csn=%d", n.url, csn), nil); err != nil {
			return err
		}
	}
	return nil
}

// stats sums GET /bench/stats over the nodes and also returns the observed
// node's own figures.
func (cl *cluster) stats(ctx context.Context) (sum, observed nodeStats, err error) {
	for _, n := range cl.nodes() {
		var st nodeStats
		if err := getJSON(ctx, n.url+"/bench/stats", &st); err != nil {
			return sum, observed, err
		}
		if n == cl.observed() {
			observed = st
		}
		if n == cl.leader {
			sum.WALSize = st.WALSize
		}
		sum.CPUMs += st.CPUMs
	}
	return sum, observed, nil
}
