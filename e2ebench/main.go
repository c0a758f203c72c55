// Command e2ebench is the repository's end-to-end benchmark. It starts
// the real serving stack in its own process (internal/server backends,
// the internal/cluster gateway, and the internal/pipeline + internal/wal
// + internal/jobs continuous path), drives one workload against it over
// loopback HTTP, checks every answer against the generated inputs, and
// prints each metric by name and unit. The last line of standard output
// is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --repeat 10 --seconds 20
//
// --trace 1 runs the separate traced run and reports per-layer metrics
// instead of end-to-end ones; --repeat runs the end-to-end benchmark
// several times in child processes and prints the spread of every metric
// against its bound in BENCHMARK.json. README.md in this directory
// describes the workloads, metrics and caveats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner. The names are
// stable: later changes compare their numbers by them.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"cold-solve":    runCold,
	"hit-gateway":   runHit,
	"ingest-replan": runIngest,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runConfig is one run's command-line settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with --repeat)")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same request bodies")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	repeat := fs.Int("repeat", 0, "steadiness proof: run the end-to-end benchmark this many times per workload, seeds seed..seed+n-1, and print each metric's spread against its bound")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds (with --repeat)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat > 0 {
		if err := repeatMode(*workload, *seed, *seconds, *repeat, *benchFile, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if !(*seconds > 0) || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	res := out.result(cfg)
	printReport(stdout, cfg, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printReport writes the human-readable part of the report: the stamp
// naming machine and inputs, any failed checks, the traced run's
// self-time table, and every metric with its unit.
func printReport(w io.Writer, cfg runConfig, out *outcome, res result) {
	for _, kv := range stamp(cfg, out.inputHash) {
		fmt.Fprintf(w, "# %-14s %s\n", kv[0], kv[1])
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	if out.table != "" {
		fmt.Fprint(w, out.table)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// median returns the median of xs, the mean of the middle two for an
// even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (NaN when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) in its
// default exclusive method, which is how the steadiness check is
// defined.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	const n = 4
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2], nil
}
