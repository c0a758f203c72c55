package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/incr"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/propset"
	"repro/internal/querylog"
	"repro/internal/wal"
)

// The ingest-replan load shape. The send interval does not divide the
// window, so the offset between the last line of a window and the
// window's tick cycles through many values within one run instead of
// staying at one value that differs from run to run.
const (
	ingestWindow   = time.Second // bccserver -window, a deployment setting
	ingestInterval = 23 * time.Millisecond
	pollInterval   = 50 * time.Millisecond
	ingestWarmups  = 5
	// lateLimit bounds the generator's 99th-percentile lateness: beyond
	// it the run did not offer the load it claims, so it fails.
	lateLimit = 100 * time.Millisecond
	// drainTimeout bounds the wait for the last window after the loop.
	drainTimeout = 4*ingestWindow + 10*time.Second

	// The pipeline's window request: bccserver's -pipeline-budget default
	// and the pipeline's default cost model (CostBase + CostPerProp·|props|).
	pipelineBudget = 10
	costBase       = 0
	costPerProp    = 1
)

type ingestState struct {
	dir    string
	be     *backend
	bodies [][]byte
	lines  [][]string
}

func (s *ingestState) close() {
	if s.be != nil {
		s.be.close()
	}
	_ = os.RemoveAll(s.dir)
}

// planPoller is the plan consumer: one GET /v1/plan/current with
// If-None-Match every pollInterval, keeping every plan it sees by seq.
type planPoller struct {
	url   string
	mu    sync.Mutex
	plans map[uint64]*api.CurrentPlanResponse
	maxSq uint64
	polls int64
	fails int64
	errs  []string
	stop  chan struct{}
	done  chan struct{}
}

func startPoller(url string) *planPoller {
	p := &planPoller{url: url, plans: map[uint64]*api.CurrentPlanResponse{}, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *planPoller) loop() {
	defer close(p.done)
	etag := ""
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	// The first poll is immediate: it sees the set-up window's plan,
	// which the next window must chain from.
	for first := true; ; first = false {
		if !first {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
		var hdr http.Header
		if etag != "" {
			hdr = http.Header{"If-None-Match": {etag}}
		}
		code, h, data, err := call("GET", p.url+"/v1/plan/current", nil, hdr)
		p.mu.Lock()
		p.polls++
		switch {
		case err == nil && code == http.StatusOK:
			var cur api.CurrentPlanResponse
			if err := json.Unmarshal(data, &cur); err != nil || cur.Plan == nil {
				p.fail("plan poll: undecodable plan: %v", err)
				break
			}
			etag = h.Get("ETag")
			p.plans[cur.Seq] = &cur
			p.maxSq = max(p.maxSq, cur.Seq)
		case err == nil && (code == http.StatusNotModified || code == http.StatusNotFound):
			// Unchanged, or nothing published yet.
		case err != nil:
			p.fail("plan poll: %v", err)
		default:
			p.fail("plan poll: HTTP %d: %.200s", code, data)
		}
		p.mu.Unlock()
	}
}

func (p *planPoller) fail(format string, args ...any) {
	p.fails++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *planPoller) seen() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxSq
}

func (p *planPoller) close() {
	close(p.stop)
	<-p.done
}

// ingestLoop is the open-loop sender: op i is due at start+i·interval
// and is timed from then, so a stall also delays, and is charged to,
// the ops behind it. One sender keeps the WAL's append order equal to
// the send order, which is what lets the check rebuild every window.
type ingestLoop struct {
	url        string
	lat, late  []float64
	backlogMax int64
	split      traceSplit
}

func (l *ingestLoop) run(o *outcome, bodies [][]byte, tr *tracer, reqBase int, replay func(req, root int, body []byte)) {
	start := time.Now()
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * ingestInterval)
		time.Sleep(time.Until(due))
		l.late = append(l.late, ms(time.Since(due)))
		traced := tr != nil && i%2 == 0
		root, httpSpan := -1, -1
		if traced {
			root = tr.begin(reqBase+i, -1, "request")
			httpSpan = tr.begin(reqBase+i, root, "http.ingest")
		}
		code, _, data, err := call("POST", l.url+"/v1/ingest", body, nil)
		d := time.Since(due)
		if traced {
			tr.end(httpSpan)
		}
		o.attempted++
		var resp api.IngestResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(data, &resp)
		} else if err == nil {
			err = fmt.Errorf("HTTP %d: %.200s", code, data)
		}
		if err == nil && resp.Accepted != ingestLinesPerOp {
			err = fmt.Errorf("accepted %d of %d lines", resp.Accepted, ingestLinesPerOp)
		}
		if err != nil {
			o.failed++
			o.problem("ingest %d: %v", i, err)
		} else {
			o.completed++
			l.lat = append(l.lat, ms(d))
			l.backlogMax = max(l.backlogMax, resp.BacklogRecords)
			if tr != nil {
				l.split.add(traced, ms(d))
			}
		}
		if traced {
			replay(reqBase+i, root, body)
			tr.end(root)
		}
	}
}

func runIngest(cfg runConfig) (*outcome, error) {
	n := int(math.Ceil(cfg.seconds * float64(time.Second) / float64(ingestInterval)))
	st, setups, err := timeSetups(setupReps, func() (*ingestState, error) {
		bodies, lines, err := ingestOps(cfg.seed, ingestWarmups+n, ingestInterval)
		if err != nil {
			return nil, err
		}
		dir, err := runDir()
		if err != nil {
			return nil, err
		}
		s := &ingestState{dir: dir, bodies: bodies, lines: lines}
		if s.be, err = startBackend("solver-a", filepath.Join(dir, "wal"), ingestWindow); err != nil {
			s.close()
			return nil, err
		}
		for i := 0; i < ingestWarmups; i++ {
			code, _, data, err := call("POST", s.be.url+"/v1/ingest", bodies[i], nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %.200s", code, data)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up ingest: %w", err)
			}
		}
		// Set-up ends once the warm-up lines are published as the first
		// window (the first tick after Open), so the timed phase starts
		// on a warm job path and a warm plan chain.
		if err := awaitIdle(s.be.srv.Pipeline(), 1); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up window: %w", err)
		}
		return s, nil
	}, (*ingestState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer transport.CloseIdleConnections()

	o := &outcome{setups: setups, inputHash: hashBodies(st.bodies)}
	pipe := st.be.srv.Pipeline()
	jobsBefore := st.be.srv.Jobs().Stats()
	pBefore := pipe.Stats()
	poller := startPoller(st.be.url)
	loop := &ingestLoop{url: st.be.url}
	timed := st.bodies[ingestWarmups:]

	var tr *tracer
	var l layerSet
	var rp *ingestReplay
	var rss *rssSampler
	if cfg.trace {
		l = layerSet{}
		half := len(timed) / 2
		mBefore, gBefore := readMem(), gcPauseNS()
		loop.run(o, timed[:half], nil, 0, nil)
		runtimeLayers(l, mBefore, readMem(), gBefore, gcPauseNS())
		untraced := loop.lat
		loop.lat = nil
		if rp, err = openReplay(st.dir); err != nil {
			poller.close()
			return nil, err
		}
		defer rp.close()
		tr = newTracer()
		loop.run(o, timed[half:], tr, half, rp.ingest(tr))
		l["trace.overhead_p50_ms"] = loop.split.overhead()
		loop.lat = append(untraced, loop.lat...)
	} else {
		rss = startRSS()
		a0 := allocBytes()
		t0 := time.Now()
		loop.run(o, timed, nil, 0, nil)
		o.elapsedS = time.Since(t0).Seconds()
		o.allocB, o.allocOps = allocBytes()-a0, o.attempted
	}

	// Drain: the last window publishes, and the poller sees it.
	if err := awaitIdle(pipe, 0); err != nil {
		o.problem("drain: %v", err)
	}
	for deadline := time.Now().Add(2 * pollInterval); poller.seen() < pipe.Stats().Seq && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	poller.close()
	if rss != nil {
		o.peakRSSMB = rss.finish()
	}
	pAfter := pipe.Stats()
	o.latMS = loop.lat

	// Plan polls are operations of the consumer.
	o.attempted += poller.polls
	o.failed += poller.fails
	for _, e := range poller.errs {
		o.problem("%s", e)
	}

	// Windows: every one solved, none failed or skipped, and every
	// published plan checked against the window it was built from.
	failedW := (pAfter.WindowsFailed - pBefore.WindowsFailed) + (pAfter.WindowsSkipped - pBefore.WindowsSkipped)
	solvedW := pAfter.WindowsSolved - pBefore.WindowsSolved
	o.attempted += int64(solvedW + failedW)
	o.failed += int64(failedW)
	if failedW > 0 {
		o.problem("pipeline: %d windows failed or skipped", failedW)
	}
	var all []string
	for _, op := range st.lines {
		all = append(all, op...)
	}
	windows := checkWindows(o, poller, all, pBefore.Seq, pAfter.Seq, failedW == 0)
	for _, w := range windows {
		if w.cur.Seq > pBefore.Seq { // the set-up window is not timed
			o.lagMS = append(o.lagMS, float64(w.cur.PublishedUnixMS-w.cur.WindowToUnixMS))
			o.ratios = append(o.ratios, w.ratio)
		}
	}

	if p99 := percentile(loop.late, 0.99); p99 > ms(lateLimit) {
		o.problem("self-check: loadgen.late_ms p99 = %.1f ms, over the %v limit", p99, lateLimit)
	}

	if cfg.trace {
		rp.windows(tr, windows)
		all, _ := tr.byName()
		l["server.decode_ms"] = spanMedian(all, "server.json.decode")
		kb := 0.0
		for _, b := range timed {
			kb += float64(len(b)) / 1024
		}
		l["dataset.request_kb"] = kb / float64(len(timed))
		l["pipeline.ingest_ms"] = spanMedian(all, "pipeline.Ingest")
		l["wal.append_ms"] = spanMedian(all, "wal.Append")
		l["jobs.submit_ms"] = spanMedian(all, "jobs.Submit")
		l["incr.solve_ms.cold"] = spanMedian(all, "algo.Run.submod.cold")
		l["incr.solve_ms.warm"] = spanMedian(all, "algo.Run.submod.warm")
		l["dataset.from_format_ms"] = spanMedian(all, "dataset.FromFormat")
		l["model.fingerprint_ms"] = spanMedian(all, "model.Fingerprint")
		l["model.fingerprint2_ms"] = spanMedian(all, "model.Fingerprint2")
		recorderLayers(l, rp.rec, 2*len(windows))
		l["incr.warm_chained"] = float64(pAfter.WarmChained - pBefore.WarmChained)
		l["wal.segments"] = float64(pAfter.WAL.Segments)
		l["pipeline.windows_solved"] = float64(solvedW)
		l["pipeline.windows_coalesced"] = float64(pAfter.WindowsCoalesced - pBefore.WindowsCoalesced)
		l["pipeline.records_skipped"] = float64(pAfter.RecordsSkipped - pBefore.RecordsSkipped)
		l["pipeline.backlog_max"] = float64(loop.backlogMax)
		var lifetimes []float64
		for _, j := range st.be.srv.Jobs().List() {
			if j.State == api.JobCompleted {
				lifetimes = append(lifetimes, float64(j.UpdatedUnixMS-j.CreatedUnixMS))
			}
		}
		if len(lifetimes) > 0 {
			l["jobs.lifetime_ms"] = median(lifetimes)
		}
		l["jobs.failed"] = float64(st.be.srv.Jobs().Stats().Failed - jobsBefore.Failed)
		l["loadgen.late_ms"] = percentile(loop.late, 0.99)
		o.layers = l.metrics()
		o.table = tr.table(all)
		if path, err := tr.write(cfg); err != nil {
			o.problem("trace: writing spans: %v", err)
		} else {
			o.table += "# spans written to " + path + "\n"
		}
	}
	return o, nil
}

// awaitIdle waits until the pipeline has published at least seq plans
// and holds no backlog and no window in flight.
func awaitIdle(p *pipeline.Pipeline, seq uint64) error {
	deadline := time.Now().Add(drainTimeout)
	for {
		ps := p.Stats()
		if ps.Seq >= seq && ps.BacklogRecords == 0 && !ps.Inflight {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backlog %d, inflight %v, plan seq %d after %v", ps.BacklogRecords, ps.Inflight, ps.Seq, drainTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkedWindow is one published window, rebuilt and checked.
type checkedWindow struct {
	cur   *api.CurrentPlanResponse
	in    *model.Instance
	ratio float64
	prev  [][]string // the plan published before it (the warm chain's seed)
}

// checkWindows rebuilds the instance of every window published in
// (fromSeq, toSeq] from the lines sent, in order: windows partition the
// WAL in append order, and each plan states its record count. A plan
// passes when its fingerprint matches the rebuilt instance, every
// classifier costs what the cost model says, the plan fits the pipeline
// budget, and its utility and covered count recompute. Failed checks
// and plans the consumer never saw count as failed operations.
func checkWindows(o *outcome, p *planPoller, lines []string, fromSeq, toSeq uint64, contiguous bool) []checkedWindow {
	var out []checkedWindow
	ig1, _ := algo.Lookup("ig1")
	off := 0
	var prev [][]string
	for seq := uint64(1); seq <= toSeq; seq++ {
		cur := p.plans[seq]
		if cur == nil || !contiguous {
			if seq > fromSeq {
				o.failed++
				o.problem("window %d: plan never observed by the consumer, or windows not contiguous", seq)
			}
			contiguous = false
			continue
		}
		end := off + cur.WindowRecords
		if end > len(lines) {
			o.failed++
			o.problem("window %d: %d records, only %d lines were sent", seq, cur.WindowRecords, len(lines)-off)
			contiguous = false
			continue
		}
		in, err := windowInstance(lines[off:end])
		off = end
		if err == nil && in.Fingerprint() != cur.Plan.Fingerprint {
			err = errors.New("plan fingerprint does not match the window's lines")
		}
		var u float64
		if err == nil {
			err = checkCostModel(cur.Plan)
		}
		if err == nil {
			u, err = newPlanTable(dataset.ToFormat(in)).check(cur.Plan)
		}
		if err != nil {
			o.failed++
			o.problem("window %d: %v", seq, err)
			continue
		}
		ref, _ := ig1.Run(context.Background(), in, algo.Params{})
		out = append(out, checkedWindow{cur: cur, in: in, ratio: u / ref.Utility, prev: prev})
		prev = planProps(cur.Plan)
	}
	return out
}

// windowInstance builds a window's instance the way the pipeline states
// it does: the lines accumulated by querylog, priced by the cost model,
// under the pipeline budget.
func windowInstance(lines []string) (*model.Instance, error) {
	b, _, err := querylog.ParseTimed(strings.NewReader(strings.Join(lines, "\n")), querylog.TimedOptions{})
	if err != nil {
		return nil, err
	}
	b.SetDefaultCost(func(s propset.Set) float64 { return costBase + costPerProp*float64(s.Len()) })
	return b.Instance(pipelineBudget)
}

// checkCostModel requires every classifier of a published plan to cost
// CostBase + CostPerProp·|props| and the plan to fit the budget.
func checkCostModel(plan *api.SolveResponse) error {
	total := 0.0
	for _, c := range plan.Classifiers {
		want := costBase + costPerProp*float64(len(c.Props))
		if !near(c.Cost, want) {
			return fmt.Errorf("classifier %v costs %v, the cost model says %v", c.Props, c.Cost, want)
		}
		total += want
	}
	if total > pipelineBudget+1e-9 {
		return fmt.Errorf("plan cost %v exceeds the pipeline budget %v", total, pipelineBudget)
	}
	return nil
}

func planProps(plan *api.SolveResponse) [][]string {
	out := make([][]string, len(plan.Classifiers))
	for i, c := range plan.Classifiers {
		out[i] = c.Props
	}
	return out
}

// ingestReplay holds the scratch layers the traced ingest run calls on
// the same inputs as the server: a pipeline and a WAL of their own (so
// replayed lines never reach the measured windows), and a job store.
type ingestReplay struct {
	pipe *pipeline.Pipeline
	log  *wal.WAL
	jobs *jobs.Manager
	rec  *obs.Recorder
}

// noJobs is the scratch pipeline's job runner. Its window never ticks
// within a run, so it is never called.
type noJobs struct{}

var errNoJobs = errors.New("scratch pipeline runs no jobs")

func (noJobs) Submit(*api.JobRequest) (*api.JobStatus, error)            { return nil, errNoJobs }
func (noJobs) Status(string) (*api.JobStatus, error)                     { return nil, errNoJobs }
func (noJobs) Result(string) (*api.SolveResponse, *api.JobStatus, error) { return nil, nil, errNoJobs }
func (noJobs) Cancel(string) (*api.JobStatus, error)                     { return nil, errNoJobs }

func openReplay(dir string) (*ingestReplay, error) {
	r := &ingestReplay{rec: obs.NewRecorder()}
	var err error
	if r.pipe, err = pipeline.Open(pipeline.Options{Dir: filepath.Join(dir, "replay-pipeline"), Window: time.Hour, Jobs: noJobs{}}); err != nil {
		return nil, err
	}
	if r.log, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "replay-wal")}); err != nil {
		r.close()
		return nil, err
	}
	r.jobs, err = jobs.Open(jobs.Config{
		Dir: filepath.Join(dir, "replay-jobs"),
		Solve: func(context.Context, *api.JobRequest, *jobs.Checkpoint) (*api.SolveResponse, error) {
			return &api.SolveResponse{Status: "complete"}, nil
		},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *ingestReplay) close() {
	if r.jobs != nil {
		r.jobs.Close()
	}
	if r.log != nil {
		_ = r.log.Close()
	}
	if r.pipe != nil {
		_ = r.pipe.Close()
	}
}

// ingest re-enacts one ingest request's layers: the handler's decode,
// the pipeline's Ingest, and the WAL append under it.
func (r *ingestReplay) ingest(tr *tracer) func(req, root int, body []byte) {
	return func(req, root int, body []byte) {
		var ir api.IngestRequest
		tr.wrap(req, root, "server.json.decode", func() { _ = json.Unmarshal(body, &ir) })
		tr.wrap(req, root, "pipeline.Ingest", func() { _, _ = r.pipe.Ingest(ir.Lines) })
		bodies := make([][]byte, len(ir.Lines))
		for i, line := range ir.Lines {
			bodies[i] = []byte(line)
		}
		tr.wrap(req, root, "wal.Append", func() { _, _ = r.log.Append(bodies...) })
	}
}

// windows re-enacts each checked window's solve path: the job submit
// the pipeline makes, the instance build and fingerprints the server
// makes, and the window's solve both cold and warm-started from the
// previous plan (the incremental chain), under an obs.Recorder.
func (r *ingestReplay) windows(tr *tracer, ws []checkedWindow) {
	ctx := obs.WithRecorder(context.Background(), r.rec)
	d, _ := algo.Lookup("submod")
	for i, w := range ws {
		req := 1_000_000 + i
		root := tr.begin(req, -1, "window")
		jreq := &api.JobRequest{SolveRequest: api.SolveRequest{
			Instance: dataset.ToFormat(w.in), Algo: "submod", Seed: 1, IncludePlan: true, WarmPlan: w.prev,
		}}
		var in *model.Instance
		var fp string
		tr.wrap(req, root, "dataset.FromFormat", func() { in, _ = dataset.FromFormat(jreq.Instance) })
		tr.wrap(req, root, "model.Fingerprint", func() { fp = in.Fingerprint() })
		tr.wrap(req, root, "model.Fingerprint2", func() { _ = in.Fingerprint2() })
		tr.wrap(req, root, "jobs.Submit", func() { _, _ = r.jobs.Submit(jreq, "submod", fp) })
		tr.wrap(req, root, "algo.Run.submod.cold", func() { _, _ = d.Run(ctx, in, algo.Params{Seed: 1}) })
		warm := incr.Repair(in, w.prev)
		tr.wrap(req, root, "algo.Run.submod.warm", func() { _, _ = d.Run(ctx, in, algo.Params{Seed: 1, Warm: warm}) })
		tr.end(root)
	}
}
