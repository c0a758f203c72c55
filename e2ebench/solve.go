package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/api"
	"repro/internal/solvecache"
)

// Workload sizes. Each solve workload uses one instance size, so its
// latency distribution has one mode.
const (
	// cold-solve: every request a distinct instance, solved by A^BCC.
	coldQueries    = 150
	coldBudgetFrac = 0.2
	coldWarmups    = 3
	// coldRate over-provisions distinct instances per second of run
	// time; a run that exhausts them ends early rather than repeat one
	// (a repeat would be a cache hit).
	coldRate = 8

	// hit-gateway: hitInstances instances replayed round-robin, every
	// one cached on both backends during set-up.
	hitQueries    = 1000
	hitBudgetFrac = 0.4
	hitInstances  = 8

	// minOps is the fewest timed requests of a solve run: p90 then has
	// at least ten samples above it, and utility_ratio always averages
	// over the same first requests.
	minOps = 100

	// setupReps is how often a run sets up, so setup_s is a median.
	setupReps = 3
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// solveLoop is the closed-loop client of the solve workloads: one
// request in flight, the next sent when the answer is in and checked.
type solveLoop struct {
	url    string
	inputs []solveInput
	wrap   bool // replay inputs round-robin; otherwise each is sent once
	next   int
	// ratioSet is how many leading inputs utility_ratio averages over.
	ratioSet int
	ratios   map[int]float64
	cached   int64 // answers that came from the solution cache
	fps      map[string]bool
	split    traceSplit
}

func newSolveLoop(url string, inputs []solveInput, wrap bool, ratioSet int) *solveLoop {
	return &solveLoop{url: url, inputs: inputs, wrap: wrap, ratioSet: ratioSet,
		ratios: map[int]float64{}, fps: map[string]bool{}}
}

// decodeSolve turns one HTTP exchange into a solve response or an error.
func decodeSolve(code int, data []byte, err error) (*api.SolveResponse, error) {
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("HTTP %d: %.200s", code, data)
	}
	var resp api.SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &resp, nil
}

// run drives requests into o until dur has passed and at least min
// requests were sent, or the inputs run out, and returns the latencies
// of the successful ones. With tr set, every other request gets a root
// span around its HTTP exchange, and replay then re-enacts the
// request's layers under that root; l.split keeps the latencies of
// traced and untraced requests apart.
func (l *solveLoop) run(o *outcome, dur time.Duration, min int, tr *tracer, replay func(req, root, idx int)) []float64 {
	var lat []float64
	start := time.Now()
	for sent := 0; sent < min || time.Since(start) < dur; sent++ {
		if l.next >= len(l.inputs) && !l.wrap {
			break
		}
		reqID, idx := l.next, l.next%len(l.inputs)
		l.next++
		in := &l.inputs[idx]
		// Alternate traced and untraced requests; the parity flips with
		// each round-robin pass, so each input lands in both sets.
		traced := tr != nil && (sent+sent/len(l.inputs))%2 == 0
		root, httpSpan := -1, -1
		if traced {
			root = tr.begin(reqID, -1, "request")
			httpSpan = tr.begin(reqID, root, "http.solve")
		}
		a0 := allocBytes()
		t0 := time.Now()
		code, _, data, err := call("POST", l.url+"/v1/solve", in.body, nil)
		d := time.Since(t0)
		o.allocB += allocBytes() - a0
		o.allocOps++
		if traced {
			tr.end(httpSpan)
		}
		o.attempted++
		o.busyS += d.Seconds()
		resp, err := decodeSolve(code, data, err)
		u := 0.0
		if err == nil {
			u, err = in.table.check(resp)
		}
		if err == nil && resp.Fingerprint != in.fp {
			err = fmt.Errorf("fingerprint %s, want %s", resp.Fingerprint, in.fp)
		}
		if err != nil {
			o.failed++
			o.problem("request %d: %v", reqID, err)
			if traced {
				tr.end(root)
			}
			continue
		}
		o.completed++
		lat = append(lat, ms(d))
		if resp.Cached {
			l.cached++
		}
		l.fps[resp.Fingerprint] = true
		if _, seen := l.ratios[idx]; !seen && idx < l.ratioSet {
			l.ratios[idx] = u / in.ig1
		}
		if tr != nil {
			l.split.add(traced, ms(d))
		}
		if traced {
			replay(reqID, root, idx)
			tr.end(root)
		}
	}
	return lat
}

// ratioList returns the per-input utility ratios in input order; the
// set is complete only when every one of the first ratioSet inputs was
// answered.
func (l *solveLoop) ratioList(o *outcome) []float64 {
	out := make([]float64, 0, l.ratioSet)
	for i := 0; i < l.ratioSet; i++ {
		r, ok := l.ratios[i]
		if !ok {
			o.problem("utility_ratio: request %d unanswered, so the request set differs from other runs", i)
			continue
		}
		out = append(out, r)
	}
	return out
}

func cacheStats(bs ...*backend) solvecache.Stats {
	var s solvecache.Stats
	for _, b := range bs {
		st := b.srv.Cache().Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.SharedWaits += st.SharedWaits
		s.Stored += st.Stored
		s.Entries += st.Entries
	}
	return s
}

func hitRatio(before, after solvecache.Stats) float64 {
	hits := float64(after.Hits - before.Hits)
	all := hits + float64(after.Misses-before.Misses) + float64(after.SharedWaits-before.SharedWaits)
	if all == 0 {
		return math.NaN()
	}
	return hits / all
}

// warmUp sends inputs once each and fails set-up on any bad answer.
func warmUp(url string, inputs []solveInput) error {
	for i := range inputs {
		code, _, data, err := call("POST", url+"/v1/solve", inputs[i].body, nil)
		resp, err := decodeSolve(code, data, err)
		if err == nil {
			_, err = inputs[i].table.check(resp)
		}
		if err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// ---- cold-solve ----

type coldState struct {
	inputs []solveInput
	be     *backend
}

func runCold(cfg runConfig) (*outcome, error) {
	n := minOps + int(math.Ceil(cfg.seconds*coldRate))
	st, setups, err := timeSetups(setupReps, func() (*coldState, error) {
		inputs, err := solveInputs(cfg.seed, 0, n, coldQueries, coldBudgetFrac, "abcc")
		if err != nil {
			return nil, err
		}
		warm, err := solveInputs(cfg.seed, n, coldWarmups, coldQueries, coldBudgetFrac, "abcc")
		if err != nil {
			return nil, err
		}
		be, err := startBackend("solver-a", "", 0)
		if err != nil {
			return nil, err
		}
		if err := warmUp(be.url, warm); err != nil {
			be.close()
			return nil, err
		}
		return &coldState{inputs: inputs, be: be}, nil
	}, func(s *coldState) { s.be.close() })
	if err != nil {
		return nil, err
	}
	defer st.be.close()
	defer transport.CloseIdleConnections()

	o := &outcome{setups: setups, inputHash: hashBodies(solveBodies(st.inputs))}
	seen := map[string]bool{}
	for _, in := range st.inputs {
		if seen[in.fp] {
			o.problem("self-check: two generated instances share fingerprint %s", in.fp)
		}
		seen[in.fp] = true
	}
	loop := newSolveLoop(st.be.url, st.inputs, false, minOps)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		traceSolve(o, cfg, loop, []*backend{st.be}, nil, dur)
	} else {
		before := cacheStats(st.be)
		rss := startRSS()
		t0 := time.Now()
		o.latMS = loop.run(o, dur, minOps, nil, nil)
		o.elapsedS = time.Since(t0).Seconds()
		o.peakRSSMB = rss.finish()
		if r := hitRatio(before, cacheStats(st.be)); r != 0 {
			o.problem("self-check: solvecache.hit_ratio = %v on cold-solve, want 0", r)
		}
	}
	if loop.cached > 0 {
		o.problem("self-check: %d cold-solve answers came from the cache", loop.cached)
	}
	if int64(len(loop.fps)) != o.completed {
		o.problem("self-check: %d answers carried only %d distinct fingerprints", o.completed, len(loop.fps))
	}
	if !cfg.trace {
		o.ratios = loop.ratioList(o)
	}
	return o, nil
}

// ---- hit-gateway ----

type hitState struct {
	inputs []solveInput
	bes    []*backend
	gw     *gateway
}

func (s *hitState) close() {
	if s.gw != nil {
		s.gw.close()
	}
	for _, b := range s.bes {
		b.close()
	}
}

func runHit(cfg runConfig) (*outcome, error) {
	st, setups, err := timeSetups(setupReps, func() (*hitState, error) {
		// algo=submod keeps set-up short; a cache hit does not depend on
		// the algorithm that filled the entry.
		inputs, err := solveInputs(cfg.seed, 0, hitInstances, hitQueries, hitBudgetFrac, "submod")
		if err != nil {
			return nil, err
		}
		s := &hitState{inputs: inputs}
		for _, id := range []string{"solver-a", "solver-b"} {
			b, err := startBackend(id, "", 0)
			if err != nil {
				s.close()
				return nil, err
			}
			s.bes = append(s.bes, b)
		}
		// Every instance is solved once on each backend, so a hedged
		// request landing on the rendezvous secondary is a hit as well.
		for _, b := range s.bes {
			if err := warmUp(b.url, inputs); err != nil {
				s.close()
				return nil, err
			}
		}
		if s.gw, err = startGateway([]string{s.bes[0].url, s.bes[1].url}); err != nil {
			s.close()
			return nil, err
		}
		if err := warmUp(s.gw.url, inputs); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*hitState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer transport.CloseIdleConnections()

	o := &outcome{setups: setups, inputHash: hashBodies(solveBodies(st.inputs))}
	loop := newSolveLoop(st.gw.url, st.inputs, true, hitInstances)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		traceSolve(o, cfg, loop, st.bes, st.gw, dur)
	} else {
		before, cBefore := cacheStats(st.bes...), st.gw.cl.Stats()
		rss := startRSS()
		t0 := time.Now()
		o.latMS = loop.run(o, dur, minOps, nil, nil)
		o.elapsedS = time.Since(t0).Seconds()
		o.peakRSSMB = rss.finish()
		checkHitRouting(o, before, cacheStats(st.bes...), cBefore, st.gw.cl.Stats())
	}
	if loop.cached != o.completed {
		o.problem("self-check: %d of %d hit-gateway answers were not cache hits", o.completed-loop.cached, o.completed)
	}
	if !cfg.trace {
		o.ratios = loop.ratioList(o)
	}
	return o, nil
}

// checkHitRouting is the hit-gateway self-check: over the timed
// requests every backend lookup hit and every pick was the affinity
// backend.
func checkHitRouting(o *outcome, before, after solvecache.Stats, cb, ca clusterStats) {
	if r := hitRatio(before, after); r != 1 {
		o.problem("self-check: solvecache.hit_ratio = %v on hit-gateway, want 1", r)
	}
	if r := affinityRatio(cb, ca); r != 1 {
		o.problem("self-check: cluster.affinity_ratio = %v on hit-gateway, want 1", r)
	}
}

func affinityRatio(before, after clusterStats) float64 {
	aff := float64(after.AffinityPicks - before.AffinityPicks)
	all := aff + float64(after.FallbackPicks-before.FallbackPicks)
	if all == 0 {
		return math.NaN()
	}
	return aff / all
}
