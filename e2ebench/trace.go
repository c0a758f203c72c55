package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solvecache"
)

type clusterStats = cluster.Stats

// span is one timed call. Spans of one request share Req; Parent links
// a span to the span that caused it (-1 for a request's root).
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(req, parent int, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// wrap runs fn inside a span named name under parent.
func (t *tracer) wrap(req, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// selfTimes returns each closed span's self time: its duration minus
// the part of its interval that its children cover.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// byName groups self times (ms) by span name, and per request.
func (t *tracer) byName() (all map[string][]float64, perReq map[string]map[int]float64) {
	self := t.selfTimes()
	all, perReq = map[string][]float64{}, map[string]map[int]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		d, ok := self[s.ID]
		if !ok {
			continue
		}
		all[s.Name] = append(all[s.Name], ms(d))
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int]float64{}
		}
		perReq[s.Name][s.Req] += ms(d)
	}
	return all, perReq
}

// table renders the per-layer self-time table.
func (t *tracer) table(all map[string][]float64) string {
	type row struct {
		name        string
		calls       int
		med, totalV float64
	}
	var rows []row
	grand := 0.0
	for name, xs := range all {
		r := row{name: name, calls: len(xs), med: median(xs)}
		for _, x := range xs {
			r.totalV += x
		}
		grand += r.totalV
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].totalV > rows[j].totalV })
	var b strings.Builder
	fmt.Fprintf(&b, "# self time per span (span duration minus time covered by its child spans)\n")
	fmt.Fprintf(&b, "# %-30s %7s %14s %14s %7s\n", "span", "calls", "median_ms", "total_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "# %-30s %7d %14.4f %14.3f %6.1f%%\n", r.name, r.calls, r.med, r.totalV, 100*r.totalV/grand)
	}
	return b.String()
}

// write stores the spans as JSON lines under .bench_build/trace.
func (t *tracer) write(cfg runConfig) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// traceSplit keeps the latencies of the traced half of a traced run
// apart: traced requests (root span and replay) alternate with untraced
// ones, so both sets see the same mix of inputs on the same machine at
// the same time, and their p50 difference is the tracing overhead.
type traceSplit struct{ traced, plain []float64 }

func (s *traceSplit) add(traced bool, latMS float64) {
	if traced {
		s.traced = append(s.traced, latMS)
	} else {
		s.plain = append(s.plain, latMS)
	}
}

func (s *traceSplit) overhead() float64 { return median(s.traced) - median(s.plain) }

// layerNames is every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports all of them; a layer its workload does not
// exercise reports 0.
var layerNames = [][2]string{
	{"server.decode_ms", "ms"}, {"server.encode_ms", "ms"}, {"server.solve_self_ms", "ms"},
	{"dataset.from_format_ms", "ms"}, {"model.fingerprint_ms", "ms"}, {"model.fingerprint2_ms", "ms"},
	{"dataset.request_kb", "KB"},
	{"solvecache.get_us", "us"}, {"solvecache.put_us", "us"}, {"solvecache.hit_ratio", "ratio"},
	{"solvecache.entries", "count"},
	{"cluster.route_fingerprints_ms", "ms"}, {"cluster.solve_routed_ms", "ms"},
	{"cluster.affinity_ratio", "ratio"}, {"cluster.hedges", "count"}, {"cluster.failovers", "count"},
	{"algo.run_ms.abcc", "ms"}, {"algo.allocs_per_op.abcc", "count"},
	{"core.prune_ms", "ms"}, {"core.prune.calls", "count"},
	{"core.knapsack_ms", "ms"}, {"core.knapsack.calls", "count"},
	{"core.qk_ms", "ms"}, {"core.qk.calls", "count"},
	{"core.mc3_ms", "ms"}, {"core.mc3.calls", "count"},
	{"core.residual_round_ms", "ms"}, {"core.residual_round.calls", "count"},
	{"core.greedy_floor_ms", "ms"}, {"core.greedy_floor.calls", "count"},
	{"qk.restart_cpu_ms", "ms"}, {"qk.restart.calls", "count"},
	{"incr.solve_ms.warm", "ms"}, {"incr.solve_ms.cold", "ms"}, {"incr.warm_chained", "count"},
	{"submod.pass_ms", "ms"},
	{"pipeline.ingest_ms", "ms"}, {"wal.append_ms", "ms"}, {"wal.segments", "count"},
	{"pipeline.windows_solved", "count"}, {"pipeline.windows_coalesced", "count"},
	{"pipeline.records_skipped", "count"}, {"pipeline.backlog_max", "count"},
	{"jobs.submit_ms", "ms"}, {"jobs.lifetime_ms", "ms"}, {"jobs.failed", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.heap_live_mb", "MB"},
	{"loadgen.late_ms", "ms"}, {"trace.overhead_p50_ms", "ms"},
}

// layerSet collects per-layer values; unset layers report 0.
type layerSet map[string]float64

func (l layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(layerNames))
	for _, n := range layerNames {
		out[n[0]] = metric{Value: l[n[0]], Unit: n[1]}
	}
	return out
}

// spanMedian is the median self time of a span name, in ms (0 if absent).
func spanMedian(all map[string][]float64, name string) float64 {
	if xs := all[name]; len(xs) > 0 {
		return median(xs)
	}
	return 0
}

// recorderLayers folds an obs.Recorder's stage totals into per-solve
// layer values. Stage totals are inclusive: nested stages overlap, and
// qk_restart runs on worker goroutines beside wall time.
func recorderLayers(l layerSet, rec *obs.Recorder, solves int) {
	if solves == 0 {
		return
	}
	names := map[string]string{
		"prune": "core.prune", "knapsack": "core.knapsack", "qk": "core.qk", "mc3": "core.mc3",
		"residual_round": "core.residual_round", "greedy_floor": "core.greedy_floor", "qk_restart": "qk.restart",
	}
	for _, st := range rec.Snapshot() {
		n := float64(solves)
		if st.Stage == "submod_pass" {
			l["submod.pass_ms"] = ms(st.Total) / n
			continue
		}
		base, ok := names[st.Stage]
		if !ok {
			continue
		}
		msName := base + "_ms"
		if base == "qk.restart" {
			msName = "qk.restart_cpu_ms"
		}
		l[msName] = ms(st.Total) / n
		l[base+".calls"] = float64(st.Calls) / n
	}
}

// runtimeLayers records the Go runtime's work between two readings.
func runtimeLayers(l layerSet, before, after memStat, pauseBefore, pauseAfter uint64) {
	l["runtime.gc_cycles"] = after.gcCycles - before.gcCycles
	l["runtime.gc_pause_ms"] = float64(pauseAfter-pauseBefore) / 1e6
	l["runtime.heap_live_mb"] = after.liveB / (1 << 20)
}

// traceSolve is the traced run of a solve workload. An untraced first
// half measures the runtime counters. In the second half every other
// request runs under a root span, and after its answer the harness
// re-enacts its layers on the same body: the gateway's
// decode, routing fingerprints, routed solve and encode (hit-gateway),
// then the backend's decode, instance build, fingerprints, cache lookup,
// Solve and encode, plus (cold-solve) the registry Run that the solve
// performs, recorded by an obs.Recorder, and the cache write.
func traceSolve(o *outcome, cfg runConfig, loop *solveLoop, bes []*backend, gw *gateway, dur time.Duration) {
	l := layerSet{}
	half := dur / 2

	cBefore := cacheStats(bes...)
	var gBefore clusterStats
	if gw != nil {
		gBefore = gw.cl.Stats()
	}
	mBefore, pBefore := readMem(), gcPauseNS()
	untraced := loop.run(o, half, 20, nil, nil)
	mAfter, pAfter := readMem(), gcPauseNS()
	runtimeLayers(l, mBefore, mAfter, pBefore, pAfter)
	cAfter := cacheStats(bes...)
	l["solvecache.hit_ratio"] = hitRatio(cBefore, cAfter)
	if gw != nil {
		gAfter := gw.cl.Stats()
		l["cluster.affinity_ratio"] = affinityRatio(gBefore, gAfter)
		l["cluster.hedges"] = float64(gAfter.Hedges - gBefore.Hedges)
		l["cluster.failovers"] = float64(gAfter.Failovers - gBefore.Failovers)
		checkHitRouting(o, cBefore, cAfter, gBefore, gAfter)
	} else if r := l["solvecache.hit_ratio"]; r != 0 {
		o.problem("self-check: solvecache.hit_ratio = %v on cold-solve, want 0", r)
	}

	tr := newTracer()
	rec := obs.NewRecorder()
	scratch := solvecache.New(1024, 15*time.Minute)
	byURL := map[string]*backend{}
	for _, b := range bes {
		byURL[b.url] = b
	}
	solves, allocObjs, kb := 0, 0.0, 0.0
	ctx := context.Background()
	replay := func(req, root, idx int) {
		body := loop.inputs[idx].body
		kb += float64(len(body)) / 1024
		owner := bes[0]
		if gw != nil {
			var greq api.SolveRequest
			var fp, fp2 string
			var gresp *api.SolveResponse
			var route cluster.RouteInfo
			tr.wrap(req, root, "gateway.json.decode", func() { _ = json.Unmarshal(body, &greq) })
			tr.wrap(req, root, "cluster.RouteFingerprints", func() { fp, fp2, _ = cluster.RouteFingerprints(&greq) })
			tr.wrap(req, root, "cluster.SolveRouted", func() { gresp, route, _ = gw.cl.SolveRouted(ctx, &greq, fp, fp2) })
			tr.wrap(req, root, "gateway.json.encode", func() { _, _ = json.Marshal(gresp) })
			if b, ok := byURL[route.BackendURL]; ok {
				owner = b
			}
		}
		var sreq api.SolveRequest
		var in *model.Instance
		var fp string
		var sresp *api.SolveResponse
		tr.wrap(req, root, "server.json.decode", func() { _ = json.Unmarshal(body, &sreq) })
		tr.wrap(req, root, "dataset.FromFormat", func() { in, _ = dataset.FromFormat(sreq.Instance) })
		if in == nil {
			o.problem("trace: request %d does not decode", req)
			return
		}
		tr.wrap(req, root, "model.Fingerprint", func() { fp = in.Fingerprint() })
		tr.wrap(req, root, "model.Fingerprint2", func() { _ = in.Fingerprint2() })
		key := api.CacheKey(fp, sreq.Algo, sreq.Seed, sreq.Target)
		tr.wrap(req, root, "solvecache.Get", func() { _, _ = owner.srv.Cache().Get(key) })
		tr.wrap(req, root, "server.Solve", func() { sresp, _ = owner.srv.Solve(ctx, &sreq) })
		if gw == nil {
			d, _ := algo.Lookup(sreq.Algo)
			a0 := readMem().allocObjs
			tr.wrap(req, root, "algo.Run", func() { _, _ = d.Run(obs.WithRecorder(ctx, rec), in, algo.Params{Seed: sreq.Seed}) })
			allocObjs += readMem().allocObjs - a0
			solves++
			tr.wrap(req, root, "solvecache.Put", func() { scratch.Put(key, sresp) })
		}
		tr.wrap(req, root, "server.json.encode", func() { _, _ = json.Marshal(sresp) })
	}
	o.latMS = append(untraced, loop.run(o, dur-half, 20, tr, replay)...)

	all, perReq := tr.byName()
	l["trace.overhead_p50_ms"] = loop.split.overhead()
	l["server.decode_ms"] = spanMedian(all, "server.json.decode")
	l["server.encode_ms"] = spanMedian(all, "server.json.encode")
	var solveSelf []float64
	for req, d := range perReq["server.Solve"] {
		solveSelf = append(solveSelf, d-perReq["dataset.FromFormat"][req]-perReq["model.Fingerprint"][req]-perReq["solvecache.Get"][req])
	}
	if len(solveSelf) > 0 {
		l["server.solve_self_ms"] = median(solveSelf)
	}
	l["dataset.from_format_ms"] = spanMedian(all, "dataset.FromFormat")
	l["model.fingerprint_ms"] = spanMedian(all, "model.Fingerprint")
	l["model.fingerprint2_ms"] = spanMedian(all, "model.Fingerprint2")
	if n := len(all["server.json.decode"]); n > 0 {
		l["dataset.request_kb"] = kb / float64(n)
	}
	l["solvecache.get_us"] = 1000 * spanMedian(all, "solvecache.Get")
	l["solvecache.put_us"] = 1000 * spanMedian(all, "solvecache.Put")
	l["solvecache.entries"] = float64(cacheStats(bes...).Entries)
	l["cluster.route_fingerprints_ms"] = spanMedian(all, "cluster.RouteFingerprints")
	l["cluster.solve_routed_ms"] = spanMedian(all, "cluster.SolveRouted")
	if solves > 0 {
		l["algo.run_ms.abcc"] = spanMedian(all, "algo.Run")
		l["algo.allocs_per_op.abcc"] = allocObjs / float64(solves)
		recorderLayers(l, rec, solves)
	}
	o.layers = l.metrics()
	o.table = tr.table(all)
	if path, err := tr.write(cfg); err != nil {
		o.problem("trace: writing spans: %v", err)
	} else {
		o.table += "# spans written to " + path + "\n"
	}
}
