package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerShare is one layer's share of the commit-to-visible path.
type layerShare struct {
	Layer string
	Ms    float64 // per commit
	Share float64
}

// pathLayers are the per-commit layer times that lie between a client's
// commit and its effect showing at the observation point.
var pathLayers = []string{
	"repl.commit_self_ms", "wal.append_ms", "wal.sync_ms", "capture.wait_ms",
	"core.propagate_ms", "core.apply_ms", "tier.fold_ms",
	"repl.ship_ms", "follower.replay_ms", "feed.deliver_ms",
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Commits  int64              `json:"commits"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`
}

var traceOutDir = "out"

// collectTrace fetches the nodes' spans, adds the generator's own, derives
// the per-layer metrics over the capacity and freshness phases and writes
// the trace out.
func (r *runner) collectTrace(ctx context.Context, rep *report, phaseStart time.Time,
	obs0, obs1 nodeStats, untracedPerS float64) error {
	var spans []span
	for _, n := range r.cl.nodes() {
		var got []span
		if err := getJSON(ctx, n.url+"/bench/trace", &got); err != nil {
			return err
		}
		spans = append(spans, got...)
	}
	observedNode := "leader"
	if r.cl.follower != nil {
		observedNode = "follower"
	}
	// feed.deliver: changefeed line received minus the end of the
	// propagation step that minted that CSN's delta rows, on the observed
	// node; both clocks are this host's.
	if fo, ok := r.obs.(*feedObserver); ok {
		var props []span
		for _, s := range spans {
			if s.Name == "core.propagate" && s.Node == observedNode {
				props = append(props, s)
			}
		}
		sort.Slice(props, func(a, b int) bool { return props[a].CSN < props[b].CSN })
		for _, csn := range r.acked {
			i := sort.Search(len(props), func(k int) bool { return props[k].CSN >= csn })
			seen, ok := fo.seen(csn)
			if i == len(props) || !ok {
				continue
			}
			end := max(seen.UnixNano(), props[i].End)
			spans = append(spans, span{Name: "feed.deliver", Node: "gen", CSN: csn,
				Start: props[i].End, End: end, Parent: -1})
		}
	}
	linkParents(spans)
	rep.Layers = layerMetrics(spans, phaseStart.UnixNano(), observedNode, rep.Commits)

	d := func(a, b int64) float64 { return float64(b - a) }
	rep.Layers["fwd_queries"] = d(obs0.FwdQueries, obs1.FwdQueries)
	rep.Layers["comp_queries"] = d(obs0.CompQueries, obs1.CompQueries)
	rep.Layers["skipped_empty"] = d(obs0.SkippedEmpty, obs1.SkippedEmpty)
	rep.Layers["index_probes"] = d(obs0.IndexProbes, obs1.IndexProbes)
	rep.Layers["rows_applied"] = d(obs0.RowsApplied, obs1.RowsApplied)
	rep.Layers["folded_rows"] = d(obs0.FoldedRows, obs1.FoldedRows)
	rep.Layers["heavy_keys"] = float64(obs1.HeavyKeys)
	if rows := d(obs0.DeltaRows, obs1.DeltaRows); rows > 0 {
		rep.Layers["rows_examined_per_delta_row"] = d(obs0.RowsScanned, obs1.RowsScanned) / rows
	}
	rep.Layers["materialize_rows"] = rep.RowsPerRead
	rep.Layers["peak_rss_mib"] = rep.PeakRSSMiB
	if untracedPerS > 0 {
		rep.Layers["trace_overhead_share"] = 1 - rep.SustainedPerS/untracedPerS
	}
	for _, m := range perLayerMetrics {
		if _, ok := rep.Layers[m.Name]; !ok {
			rep.Layers[m.Name] = 0
		}
	}

	total := 0.0
	for _, l := range pathLayers {
		total += rep.Layers[l]
	}
	for _, l := range pathLayers {
		if v := rep.Layers[l]; total > 0 {
			rep.Shares = append(rep.Shares, layerShare{Layer: l, Ms: v, Share: v / total})
		}
	}

	if err := os.MkdirAll(traceOutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceOutDir, "trace-"+r.w.Name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := json.NewEncoder(f).Encode(traceFile{Workload: r.w.Name, Seed: rep.Seed,
		Commits: rep.Commits, Layers: rep.Layers, Spans: spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", path, werr)
	}
	return nil
}

// layerMetrics reduces linked spans that end at or after from to per-layer
// times, each in milliseconds per commit unless its name says otherwise.
func layerMetrics(spans []span, from int64, observedNode string, commits int64) map[string]float64 {
	self := selfTimes(spans)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	per := func(total float64) float64 {
		if commits == 0 {
			return 0
		}
		return total / float64(commits)
	}
	var (
		sum                 = map[string]float64{}
		syncs, walBytes     float64
		reads, shipBytes    float64
		appendEnd           = map[int64]int64{} // CSN -> end of its last log append
		walOff              = map[int64]int64{} // CSN -> log offset its bytes reach
		shipments, replayed []span
	)
	for i, s := range spans {
		if s.End < from {
			continue
		}
		switch s.Name {
		case "wal.append", "wal.sync":
			if s.Parent < 0 {
				continue // outside any commit or maintenance step
			}
			sum[s.Name] += ms(s.dur())
			if s.Name == "wal.sync" {
				syncs++
			} else {
				walBytes += float64(s.N)
				appendEnd[s.CSN] = max(appendEnd[s.CSN], s.End)
				walOff[s.CSN] = max(walOff[s.CSN], s.Off)
			}
		case "repl.commit":
			sum["repl.commit_self"] += ms(self[i])
		case "repl.materialize":
			sum[s.Name] += ms(s.dur())
			reads++
		case "capture.wait":
			sum[s.Name] += ms(s.dur())
		case "tier.fold":
			sum[s.Name] += ms(self[i])
		case "core.propagate", "core.apply":
			// self time: the log writes of a propagation transaction are
			// accounted to wal.*
			if s.Node == observedNode {
				sum[s.Name] += ms(self[i])
			}
		case "feed.deliver":
			sum[s.Name] += ms(s.dur())
		case "repl.ship":
			shipBytes += float64(s.N)
		case "follower.ship_frames":
			shipments = append(shipments, s)
		case "follower.replayed":
			replayed = append(replayed, s)
		}
	}
	// Shipping and replay, per commit: the chunk that completed a commit's
	// log bytes on the follower is the first shipment whose offset reaches
	// them. repl.ship runs from the leader's last append of the commit to
	// that chunk's arrival, follower.replay from there to the replay
	// driver seeing the commit applied.
	sort.Slice(shipments, func(a, b int) bool { return shipments[a].Off < shipments[b].Off })
	sort.Slice(replayed, func(a, b int) bool { return replayed[a].CSN < replayed[b].CSN })
	for csn, off := range walOff {
		i := sort.Search(len(shipments), func(k int) bool { return shipments[k].Off >= off })
		j := sort.Search(len(replayed), func(k int) bool { return replayed[k].CSN >= csn })
		if i == len(shipments) || j == len(replayed) {
			continue
		}
		arrived := shipments[i].Start
		sum["repl.ship"] += ms(time.Duration(max(0, arrived-appendEnd[csn])))
		sum["follower.replay"] += ms(time.Duration(max(0, replayed[j].End-arrived)))
	}
	out := map[string]float64{
		"wal.append_ms":         per(sum["wal.append"]),
		"wal.sync_ms":           per(sum["wal.sync"]),
		"wal.syncs_per_commit":  per(syncs),
		"wal.bytes_per_commit":  per(walBytes),
		"repl.commit_self_ms":   per(sum["repl.commit_self"]),
		"capture.wait_ms":       per(sum["capture.wait"]),
		"core.propagate_ms":     per(sum["core.propagate"]),
		"core.apply_ms":         per(sum["core.apply"]),
		"tier.fold_ms":          per(sum["tier.fold"]),
		"repl.ship_ms":          per(sum["repl.ship"]),
		"follower.replay_ms":    per(sum["follower.replay"]),
		"feed.deliver_ms":       per(sum["feed.deliver"]),
		"ship_bytes_per_commit": per(shipBytes),
	}
	if reads > 0 {
		out["repl.materialize_ms"] = sum["repl.materialize"] / reads
	}
	return out
}
