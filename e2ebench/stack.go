package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// serverConfig is cmd/bccserver's shipped flag defaults. Only deployment
// settings differ: the backend identity and the pipeline window (the
// directories are passed to OpenJobs/OpenPipeline). fsync, worker counts
// and every other knob stay as shipped.
func serverConfig(id string, window time.Duration) server.Config {
	return server.Config{
		Workers:               4,
		Queue:                 64,
		CacheSize:             1024,
		CacheTTL:              15 * time.Minute,
		DefaultDeadline:       30 * time.Second,
		MaxDeadline:           2 * time.Minute,
		MaxBodyBytes:          8 << 20,
		MaxBatch:              64,
		BackendID:             id,
		JobWorkers:            2,
		JobMaxJobs:            256,
		JobCheckpointInterval: 2 * time.Second,
		JobDefaultDeadline:    10 * time.Minute,
		JobMaxDeadline:        time.Hour,
		PipelineWindow:        window,
		PipelineRetention:     time.Hour,
		PipelineMaxBacklog:    100000,
		PipelineAlgo:          "submod",
		PipelineBudget:        10,
		PipelineSeed:          1,
	}
}

// node is one HTTP listener on loopback, served like the cmd binaries
// serve theirs.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		url: "http://" + ln.Addr().String(),
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2*time.Minute + 30*time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // always http.ErrServerClosed after Shutdown/Close
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.hs.Shutdown(ctx) // on timeout, Close below cuts the stragglers
	_ = n.hs.Close()
	<-n.done
}

// backend is one bccserver: a server.Server behind its own listener.
type backend struct {
	*node
	srv *server.Server
}

// startBackend starts a backend; a non-empty walDir also opens the job
// store (in walDir/jobs, as bccserver does) and the pipeline.
func startBackend(id, walDir string, window time.Duration) (*backend, error) {
	srv := server.New(serverConfig(id, window))
	if walDir != "" {
		if err := srv.OpenJobs(filepath.Join(walDir, "jobs"), nil); err != nil {
			srv.Close()
			return nil, err
		}
		if err := srv.OpenPipeline(walDir, nil); err != nil {
			srv.Close()
			return nil, err
		}
	}
	n, err := serve(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &backend{node: n, srv: srv}, nil
}

func (b *backend) close() {
	b.node.close()
	b.srv.Close()
}

// gateway is one bccgate: a cluster.Cluster behind a cluster.Gateway,
// at bccgate's defaults (auto hedging on, 2s probes, one attempt per
// backend call).
type gateway struct {
	*node
	cl *cluster.Cluster
}

func startGateway(backends []string) (*gateway, error) {
	cl, err := cluster.New(cluster.Config{Backends: backends})
	if err != nil {
		return nil, err
	}
	n, err := serve(cluster.NewGateway(cl, cluster.GatewayConfig{}).Handler())
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &gateway{node: n, cl: cl}, nil
}

func (g *gateway) close() {
	g.node.close()
	g.cl.Close()
}

// transport is the load generator's connection pool: keep-alive over
// loopback, so the timed loop never pays a TCP handshake.
var transport = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}

var httpClient = &http.Client{Transport: transport, Timeout: 2 * time.Minute}

// call sends one request and reads the whole answer.
func call(method, url string, body []byte, header http.Header) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// runDir makes the run's scratch directory (WAL, job store) under
// .bench_build in the working directory, so a run writes only inside
// its checkout.
func runDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// memSamples are the process-wide runtime counters readMem reports:
// heap bytes and objects allocated, GC cycles and the live heap.
// runtime/metrics reads them without stopping the world.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

type memStat struct {
	allocB, allocObjs, gcCycles, liveB float64
}

func readMem() memStat {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return memStat{allocB: v(0), allocObjs: v(1), gcCycles: v(2), liveB: v(3)}
}

// allocBytes is the cheap form of readMem for per-request accounting.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// gcPauseNS reads the cumulative GC pause time (stops the world briefly;
// called only at phase boundaries).
func gcPauseNS() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// rssInterval is the slice length of the peak_rss_mb measurement.
const rssInterval = 250 * time.Millisecond

// rssSampler measures peak_rss_mb over the timed phase: the median, over
// rssInterval slices, of the process's resident-set high-water mark,
// which is reset at the start of each slice. The maximum over a whole run
// lands on whichever GC cycle happened to peak highest, and varies from
// run to run; the typical slice peak does not. Where the kernel refuses
// the reset, every slice reads the whole process's mark.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startRSS() *rssSampler {
	runtime.GC() // start from the live heap, not set-up's garbage
	resetHWM()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peaks = append(s.peaks, peakRSSMB())
				return
			case <-t.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetHWM()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median slice peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.peaks)
}

// resetHWM restarts the kernel's resident-set high-water mark of this
// process (Linux clear_refs value 5).
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// timeSetups runs build reps times, tearing down every build but the
// last, and returns the last build with each repetition's wall time.
// Set-up is repeated so setup_s can be a median.
func timeSetups[T any](reps int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var zero T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return v, times, nil
		}
		teardown(v)
	}
	return zero, nil, fmt.Errorf("set-up: no repetitions")
}
