// Command perfbench is the repository's benchmark. It drives the
// simulator's layers from outside, through their exported entry points,
// on three workloads — the paper-scale strategy sweep, the 100k-node
// world and the simulation daemon — checks their outputs, and prints
// every metric by name with its unit. See README.md in this directory.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --workload <name> --repeat <n> [--seed <first>] ...
//
// The last line of a run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1 the
// run measures untraced first, then repeats the work traced and reports
// the per-layer metrics. The exit status is non-zero when an output
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string
}

// workload is one benchmark workload: an untraced measuring pass, and a
// traced pass that may rely on what the measuring pass left behind.
type workload interface {
	measure(o options) (*report, error)
	trace(o options, rec *recorder) (*report, error)
}

// workloads maps names to constructors, so every run starts fresh.
var workloads = map[string]func() workload{
	"strategy-sweep": func() workload { return &sweepWorkload{} },
	"world-100k":     func() workload { return &worldWorkload{} },
	"serve-mixed":    func() workload { return serveWorkload{} },
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the requested mode and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	tr := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spans := fs.String("spans", "", "span JSONL output of a traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	repeat := fs.Int("repeat", 0, "run the workload this many times, seeds seed..seed+n-1, in child processes, and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*tr != 0 && *tr != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, args, *name, *seed, *tr == 1, stdout, stderr)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *tr == 1, spans: *spans}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
	}
	res, err := runWorkload(*name, mk(), o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadNames lists the workloads in order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs the measuring pass and, when tracing, the traced
// pass, printing human-readable detail to out, and returns the result
// line.
func runWorkload(name string, w workload, o options, out io.Writer) (result, error) {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v GOMAXPROCS %d\n", name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	base, err := w.measure(o)
	if err != nil {
		return result{}, err
	}
	printReport(out, "end-to-end (tracing off)", base)
	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricValue{}}
	if !o.trace {
		for _, m := range endToEnd {
			v, ok := base.e2e[m.Name]
			if !ok {
				return result{}, fmt.Errorf("metric %s not measured", m.Name)
			}
			res.Metrics[m.Name] = metricValue{finite(v), m.Unit}
		}
		res.Correct = res.Failed == 0 && res.Attempted > 0
		return res, nil
	}

	rec := newRecorder()
	traced, err := w.trace(o, rec)
	if err != nil {
		return result{}, err
	}
	printReport(out, "traced pass", traced)
	fmt.Fprintln(out, "tracing overhead (untraced → traced):")
	for _, m := range endToEnd {
		a, okA := base.e2e[m.Name]
		b, okB := traced.e2e[m.Name]
		if okA && okB && a != 0 {
			fmt.Fprintf(out, "  %-14s %12.6g → %12.6g %s (%+.1f%%)\n", m.Name, a, b, m.Unit, 100*(b-a)/a)
		}
	}
	fmt.Fprintln(out, "per-layer:")
	for _, m := range perLayer {
		v := traced.layers[m.Name]
		res.Metrics[m.Name] = metricValue{finite(v), m.Unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if err := rec.writeJSONL(o.spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.closed()), o.spans)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// printReport prints one pass: its notes, its end-to-end metrics under
// their generic and workload names, and its failures.
func printReport(out io.Writer, title string, r *report) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	for _, m := range endToEnd {
		if v, ok := r.e2e[m.Name]; ok {
			fmt.Fprintf(out, "  %-14s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, m := range r.named {
		fmt.Fprintf(out, "  %-14s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "  %-14s %14.6g ratio (%d failed of %d attempted)\n", "failed_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
}
