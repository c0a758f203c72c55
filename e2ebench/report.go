package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

// outcome is what one workload run measured. Each workload fills the
// fields that apply to it; result turns them into named metrics.
type outcome struct {
	setups    []float64 // seconds per set-up repetition
	latMS     []float64 // per-request latency of successful operations
	busyS     float64   // closed loop: summed request time; 0 for the open loop
	elapsedS  float64   // wall time of the timed phase
	completed int64     // operations that completed (throughput numerator)
	attempted int64
	failed    int64
	ratios    []float64 // served utility / own cold IG1 utility, one per checked instance or window
	allocB    float64   // heap bytes allocated during timed operations
	allocOps  int64
	peakRSSMB float64
	lagMS     []float64 // ingest-replan: publish lag per published window
	inputHash string    // sha256 over every generated request body, in send order
	problems  []string  // failed self-checks and output checks, reported verbatim

	// Traced run only.
	layers map[string]metric
	table  string
}

// problem records a failed check; the first few are printed verbatim.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result builds the final JSON: end-to-end metrics normally, per-layer
// metrics for the traced run. The run is correct only when every
// operation passed its output check and every self-check held.
func (o *outcome) result(cfg runConfig) result {
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		res.Metrics = o.layers
		return res
	}
	okRatio := 0.0
	if o.attempted > 0 {
		okRatio = float64(o.attempted-o.failed) / float64(o.attempted)
	}
	p50 := median(o.latMS)
	throughput := 0.0
	switch {
	case o.busyS > 0: // closed loop: completions per second of request time
		throughput = float64(o.completed) / o.busyS
	case o.elapsedS > 0:
		throughput = float64(o.completed) / o.elapsedS
	}
	lag := p50 // a synchronous solve publishes its plan in its response
	if o.lagMS != nil {
		lag = median(o.lagMS)
	}
	res.Metrics = map[string]metric{
		"setup_s":         {median(o.setups), "s"},
		"p50_ms":          {p50, "ms"},
		"p90_ms":          {percentile(o.latMS, 0.9), "ms"},
		"throughput_rps":  {throughput, "1/s"},
		"ok_ratio":        {okRatio, "ratio"},
		"utility_ratio":   {mean(o.ratios), "ratio"},
		"alloc_mb_per_op": {o.allocB / float64(max(o.allocOps, 1)) / (1 << 20), "MB"},
		"peak_rss_mb":     {o.peakRSSMB, "MB"},
		"publish_lag_ms":  {lag, "ms"},
	}
	if len(o.latMS) < 100 {
		// p90 has fewer than ten samples above it: not a percentile
		// worth reporting, so the run says so instead.
		o.problem("only %d latency samples; p90 needs at least 100", len(o.latMS))
		res.Correct = false
	}
	return res
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stamp names the machine and the inputs of a report, so two reports
// can be compared only when they say they are comparable.
func stamp(cfg runConfig, inputHash string) [][2]string {
	b := obs.ReadBuild()
	commit := b.Revision
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	} else if b.Dirty {
		commit += " (modified)"
	}
	return [][2]string{
		{"workload", cfg.workload},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", fmt.Sprint(cfg.seconds)},
		{"trace", fmt.Sprint(cfg.trace)},
		{"cpu", cpuModel()},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"goos/goarch", runtime.GOOS + "/" + runtime.GOARCH},
		{"go", runtime.Version()},
		{"commit", commit},
		{"source_sha256", sourceHash()},
		{"inputs_sha256", inputHash},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources under the working directory,
// the repository root (every .go file and go.mod; hidden directories
// such as .bench_build are skipped). It identifies the code under test
// where no VCS stamp exists, as in an exported checkout.
func sourceHash() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// benchDef is the part of BENCHMARK.json the repeat mode needs.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatMode is the steadiness proof: each selected workload runs n
// times, each in a fresh child process, with seeds seed..seed+n-1, and
// for every end-to-end metric the per-run values, median, quartiles and
// spread — (q3-q1)/median — are printed against the metric's bound. A
// spread over a third of the bound is flagged as unsteady. setup_s is
// exempt from the spread check; only its median is held to its bound.
func repeatMode(workload string, seed int64, seconds float64, n int, benchPath string, stdout, stderr io.Writer) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("parsing %s: %w", benchPath, err)
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range names {
		if _, ok := workloads[wl]; !ok {
			return fmt.Errorf("unknown workload %q", wl)
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			var buf bytes.Buffer
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			var res result
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: parsing result: %w", wl, s, err)
			}
			fmt.Fprintf(stdout, "%s seed=%d correct=%v attempted=%d failed=%d\n", wl, s, res.Correct, res.Attempted, res.Failed)
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "\n%s: %d runs\n%-16s %10s %10s %10s %8s %6s  %s\n", wl, n,
			"metric", "q1", "median", "q3", "spread", "bound", "verdict / per-run values")
		for _, m := range def.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				fmt.Fprintf(stdout, "%-16s missing\n", m.Name)
				continue
			}
			q1, q2, q3, _ := quartiles(xs)
			spread := math.Abs(q3-q1) / math.Abs(q2)
			if q2 == 0 {
				spread = 0
			}
			verdict := "steady"
			switch {
			case m.Name == "setup_s":
				verdict = "exempt"
			case spread > m.Bound:
				verdict = "NOISY"
			case spread > m.Bound/3:
				verdict = "within bound, over a third"
			}
			fmt.Fprintf(stdout, "%-16s %10.4g %10.4g %10.4g %8.4f %6.3f  %s %v\n",
				m.Name, q1, q2, q3, spread, m.Bound, verdict, roundAll(xs))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}
