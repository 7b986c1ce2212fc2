// Command perfbench runs the goldms reference pipeline in one process and
// reports its end-to-end and per-layer metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [-tmp dir]
//
// Two leaf producers of 512 sets each are written by the benchmark on a
// wall-clock-aligned grid and served over sock; a mid-tier ldmsd pulls them
// over sock, and a top-tier ldmsd pulls the mid tier's re-exports, stores
// them with store_csv and serves the query gateway. Every row stored and
// every query answered is checked against the seeded value function. The
// last line of standard output is one JSON object: with --trace 0 it holds
// the end-to-end metrics, with --trace 1 the per-layer ones. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// hardDeadline bounds one run; past it the run is reported as failed.
const hardDeadline = 170 * time.Second

// endToEnd and perLayer name the metrics of the two kinds of run, in the
// order BENCHMARK.json lists them.
var endToEnd = []string{
	"setup_s", "sample_age_p50_ms", "sample_age_p99_ms", "cpu_us_per_sample",
	"wire_bytes_per_sample", "peak_rss_mb", "resync_p50_ms", "resync_p99_ms",
}

var perLayer = []string{
	"metric.set_values_ns.p50",
	"transport.update_batch_us.p50", "transport.update_batch_us.p99",
	"transport.ops_per_batch", "transport.delta_frac", "transport.bytes_per_update",
	"transport.dir_us.p50", "transport.dirgen_us.p50",
	"transport.lookup_us.p50", "transport.lookup_us.p99",
	"transport.connect_bytes_per_set", "transport.op_errors",
	"transport.server_updates", "transport.server_delta_frac",
	"ldmsd.pass_us.mid", "ldmsd.pass_us.top", "ldmsd.skipped_busy",
	"ldmsd.stale_frac", "ldmsd.update_errors",
	"tier.folds", "tier.members_per_fold",
	"store.batch_us.p50", "store.batch_us.p99", "store.rows_per_batch",
	"store.flush_ms.p50", "store.bytes_per_row", "store.queue_depth_max", "store.dropped",
	"query.window_query_us.p50", "query.window_query_us.p99",
	"query.http_overhead_us", "query.window_bytes_per_point",
	"mmgr.arena_bytes.mid", "mmgr.arena_bytes.top",
	"runtime.alloc_bytes_per_sample", "runtime.gc_cpu_frac", "runtime.goroutines_delta",
	"bench.trace_overhead_frac",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics and verdict.
type report struct {
	correct           bool
	attempted, failed int64
	problems          []string
	metrics           map[string]metricValue
	order             []string
}

func newReport() *report {
	return &report{correct: true, metrics: make(map[string]metricValue)}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// problem records a failed check; any problem fails the run.
func (r *report) problem(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	tmp := flag.String("tmp", os.TempDir(), "directory for the run's temporary files")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		os.Exit(2)
	}
	time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %s\n", w.name, hardDeadline)
		printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		os.Exit(3)
	})
	rc := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, tmp: *tmp}
	rep, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	want := endToEnd
	if rc.traced {
		want = perLayer
	}
	out := result{Correct: rep.correct, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, n := range want {
		m, ok := rep.metrics[n]
		if !ok {
			out.Correct = false
			fmt.Println("FAILED: metric not measured:", n)
			continue
		}
		out.Metrics[n] = m
	}
	printResult(out)
	if !out.Correct {
		os.Exit(1)
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	traced  bool
	tmp     string
}

// spansPath is where a traced run leaves its spans: one file per workload
// in the temporary directory, overwritten by the next traced run.
func (rc runConfig) spansPath() string {
	return filepath.Join(rc.tmp, "spans-"+rc.w.name+".jsonl")
}
