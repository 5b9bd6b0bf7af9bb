package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// metricDef is one metric of the benchmark's contract.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every workload reports with tracing off.
// work_per_s is the workload's own throughput: trials per second
// (strategy-sweep), simulated node-seconds per second (world-100k) or
// terminal jobs per second (serve-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics the traced run reports. A workload reports
// every one; those whose layer it does not exercise read 0.
var perLayer = []metricDef{
	// world-100k: set-up spans, run span and medium counters.
	{"topo.place_s", "s"},
	{"netsim.new_world_s", "s"},
	{"routing.add_flow_s", "s"},
	{"netsim.run_s", "s"},
	{"radio.broadcasts", "count"},
	{"radio.unicasts", "count"},
	{"radio.delivered", "count"},
	{"radio.ns_per_delivery", "ns"},
	// CPU self time by package over the measured region (all workloads).
	{"hello.self_s", "s"},
	{"spatial.self_s", "s"},
	{"radio.self_s", "s"},
	{"sim.self_s", "s"},
	{"netsim.self_s", "s"},
	{"motion.self_s", "s"},
	{"mobility.self_s", "s"},
	{"core.self_s", "s"},
	{"routing.self_s", "s"},
	{"fault.self_s", "s"},
	{"energy.self_s", "s"},
	{"geom.self_s", "s"},
	{"serve.self_s", "s"},
	{"scenario.self_s", "s"},
	{"encoding_json.self_s", "s"},
	{"net_http.self_s", "s"},
	{"trace.self_s", "s"},
	{"runtime.map_self_s", "s"},
	{"runtime.gc_self_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	// world-100k: the same for the set-up phase.
	{"setup.hello.self_s", "s"},
	{"setup.spatial.self_s", "s"},
	{"setup.netsim.self_s", "s"},
	{"setup.topo.self_s", "s"},
	{"setup.routing.self_s", "s"},
	{"setup.runtime.map_self_s", "s"},
	{"setup.runtime.gc_self_s", "s"},
	{"setup.runtime.alloc_mb", "MB"},
	{"setup.runtime.gc_cycles", "count"},
	// strategy-sweep: the traced replay.
	{"experiments.gen_instance_p50_ms", "ms"},
	{"experiments.gen_instance_p99_ms", "ms"},
	{"netsim.new_world_p50_ms", "ms"},
	{"netsim.new_world_p99_ms", "ms"},
	{"netsim.trial_run_p50_ms", "ms"},
	{"netsim.trial_run_p99_ms", "ms"},
	{"sweep.trial_p50_ms", "ms"},
	{"sweep.trial_p99_ms", "ms"},
	{"sweep.busy_frac", "ratio"},
	{"netsim.retransmits", "count"},
	{"netsim.route_repairs", "count"},
	{"netsim.link_breaks", "count"},
	{"fault.drops", "count"},
	{"netsim.useful_tx_frac", "ratio"},
	{"trace.moves", "count"},
	{"trace.notifications", "count"},
	// serve-mixed (submit_rtt, load and fetch are medians). The hit and
	// miss latencies are the traced pass's; the untraced ones are printed
	// with the end-to-end metrics.
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.submit_rtt_ms", "ms"},
	{"scenario.load_us", "us"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.exec_p50_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.coalesce_ratio", "ratio"},
	{"serve.polls_per_miss", "ratio"},
	{"serve.refused", "count"},
	{"serve.result_kb", "KB"},
	{"trace.fetch_ms", "ms"},
	{"trace.kb", "KB"},
}

// namedMetric is a workload-specific view of an end-to-end metric,
// printed under the name a user of that workload knows it by.
type namedMetric struct {
	Name, Unit string
	Value      float64
}

// report is what one pass of a workload measured.
type report struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	named     []namedMetric
	notes     []string
	failures  []string
}

// newReport returns an empty report.
func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed operation and why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// setHeap stores the heap of a workload made of many short jobs, given
// the peaks of its sampling windows: peak_heap_mb is the median window
// peak, the level the heap typically reaches between collections, and
// the highest sample is printed next to it as peak_heap_max_mb, so a
// rare large allocation still shows in the text output.
func (r *report) setHeap(windowPeaks []float64) {
	r.e2e["peak_heap_mb"] = median(windowPeaks)
	r.named = append(r.named, namedMetric{"peak_heap_max_mb", "MB", slices.Max(windowPeaks)})
}

// notef adds a line of human-readable detail.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addCPU stores a CPU attribution as "<prefix><layer>.self_s" metrics
// ("<prefix>runtime.map_self_s" for the runtime's map and GC buckets).
func addCPU(dst map[string]float64, prefix string, cpu map[string]float64) {
	for layer, s := range cpu {
		key := layer + ".self_s"
		if strings.HasPrefix(layer, "runtime.") {
			key = layer + "_self_s"
		}
		dst[prefix+key] = s
	}
}

// addDist stores a distribution as "<name>_p50_<unit>" and
// "<name>_p99_<unit>", the latter being the percentile summarize
// reports as the tail.
func addDist(dst map[string]float64, name, unit string, d dist) {
	dst[name+"_p50_"+unit] = d.P50
	dst[name+"_p99_"+unit] = d.Tail
}

// distNote renders a distribution with its sample count and the
// percentile actually used for the tail.
func distNote(name, unit string, d dist) string {
	return fmt.Sprintf("%s: p50 %.4f %s, tail p%g %.4f %s (n=%d)", name, d.P50, unit, d.TailPct, d.Tail, unit, d.N)
}

// finite maps the infinite latency of a failed operation to the largest
// float so the value stays valid JSON.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}
