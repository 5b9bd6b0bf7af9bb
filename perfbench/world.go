package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/motion"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The world-100k workload is the BenchmarkWorld100k n100k scenario of
// internal/netsim: 100k nodes placed uniformly at ~15 expected radio
// neighbors, Gauss-Markov ambient drift, 1000 short multi-hop flows, the
// default serial scheduler and neighbor index. The build (placement,
// NewWorld, flow planning) is the set-up; World.Run is the measured
// region. The seed picks the placement and the motion streams.
const (
	worldNodes  = 100000
	worldFlows  = 1000
	worldDegree = 15
	// worldSetups is how many times a run builds the world at least:
	// the reported set-up time is the median of the builds.
	worldSetups = 5
	// worldRunSeconds is the nominal wall time of one Run on a 2-CPU
	// host; a run holds one Run per worldRunSeconds requested.
	worldRunSeconds = 4.5
)

// worldDigestSeed1 is the SHA-256 of the world-100k result at --seed 1
// (see worldDigest): energy ledger, flow outcomes, medium counters and
// duration. Behaviour-preserving changes keep it.
const worldDigestSeed1 = "504a3bf2ca4444201e493d5a98f8a1f2c644fc13d3fc684b8a91825a90b3781e"

// worldWorkload carries the untraced pass's result digest to the traced
// pass, which must reproduce it.
type worldWorkload struct{ digest string }

// built is one constructed world-100k instance.
type built struct {
	w     *netsim.World
	nodes int
	setup time.Duration
}

// buildWorld places the nodes, builds the world and plans the flows,
// recording spans for each step when rec is non-nil.
func buildWorld(seed int64, rec *recorder) (built, error) {
	start := time.Now()
	root := rec.begin("world.setup", 0, seed)
	defer rec.end(root)

	side := math.Sqrt(float64(worldNodes) * math.Pi * 200 * 200 / worldDegree)
	sp := rec.begin("topo.place", root, seed)
	pts := topo.PlaceUniform(stats.NewSource(seed), worldNodes, side, side)
	rec.end(sp)
	energies := make([]float64, worldNodes)
	for i := range energies {
		energies[i] = 1e6
	}
	cfg := netsim.DefaultConfig()
	cfg.Mode = netsim.ModeNoMobility
	cfg.Motion = &motion.Config{
		Model: motion.ModelGaussMarkov, Seed: seed + 7,
		FieldW: side, FieldH: side,
		SpeedLo: 0.5, SpeedHi: 1.5,
	}
	cfg.Horizon = 1e5

	sp = rec.begin("netsim.new_world", root, seed)
	w, err := netsim.NewWorld(cfg, pts, energies)
	rec.end(sp)
	if err != nil {
		return built{}, fmt.Errorf("world-100k: NewWorld: %w", err)
	}
	plan := rec.begin("world.plan_flows", root, seed)
	g, err := w.Graph()
	if err != nil {
		return built{}, fmt.Errorf("world-100k: graph: %w", err)
	}
	// Endpoints: breadth-first four hops out from a rotating start node,
	// taking the last node discovered, so every flow is a genuine
	// multi-hop flow whatever the field size.
	visited := make([]int, worldNodes)
	for i := range visited {
		visited[i] = -1
	}
	var queue []int
	added := 0
	for start := 0; start < worldNodes && added < worldFlows; start += worldNodes/worldFlows + 1 {
		queue = append(queue[:0], start)
		visited[start] = start
		dst, depth, frontierEnd := -1, 0, 1
		for i := 0; i < len(queue) && depth < 4; i++ {
			if i == frontierEnd {
				depth++
				frontierEnd = len(queue)
				if depth == 4 {
					break
				}
			}
			for _, nb := range g.Neighbors(queue[i]) {
				if visited[nb] == start {
					continue
				}
				visited[nb] = start
				queue = append(queue, nb)
				dst = nb
			}
		}
		if dst < 0 || dst == start {
			continue
		}
		sp := rec.begin("routing.add_flow", plan, int64(start))
		_, err := w.AddFlow(netsim.FlowSpec{Src: start, Dst: dst, LengthBits: 4 * cfg.PacketBits})
		rec.end(sp)
		if err != nil {
			continue // unroutable corner placement; density makes this rare
		}
		added++
	}
	rec.end(plan)
	if added < worldFlows/2 {
		return built{}, fmt.Errorf("world-100k: only %d of %d flows routable", added, worldFlows)
	}
	return built{w: w, nodes: worldNodes, setup: time.Since(start)}, nil
}

// worldDigest hashes the parts of a result that pin behaviour: energy
// ledger, flow outcomes, medium counters and duration.
func worldDigest(res netsim.Result) (string, error) {
	b, err := json.Marshal(struct {
		Energy   metrics.EnergyBreakdown
		Flows    []metrics.FlowOutcome
		Medium   radio.Stats
		Duration sim.Time
	}{res.Energy, res.Flows, res.Medium, res.Duration})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkWorld runs the output checks on one result: energy conservation
// at every seed, and the digest against the untraced pass and, at the
// default seed, against the recorded one.
func checkWorld(o options, res netsim.Result, want string) (string, []string) {
	var bad []string
	initial := res.Initial.TotalResidual()
	final := res.Final.TotalResidual()
	if d := math.Abs(initial - (final + res.Energy.Total())); d > 1e-6*math.Max(1, initial) {
		bad = append(bad, fmt.Sprintf("energy not conserved: initial %.6f != residual %.6f + ledger %.6f", initial, final, res.Energy.Total()))
	}
	if res.Canceled || len(res.Flows) == 0 {
		bad = append(bad, "run canceled or without flows")
	}
	dg, err := worldDigest(res)
	if err != nil {
		return "", append(bad, err.Error())
	}
	if want != "" && dg != want {
		bad = append(bad, fmt.Sprintf("digest %s differs from the first run's %s", dg, want))
	}
	if o.seed == 1 && dg != worldDigestSeed1 {
		bad = append(bad, fmt.Sprintf("digest %s differs from the recorded seed-1 digest %s", dg, worldDigestSeed1))
	}
	return dg, bad
}

// worldRuns is the number of runs a run of the given length holds: one
// per worldRunSeconds, the nominal Run time on a 2-CPU host.
func worldRuns(seconds float64) int {
	return max(1, int(math.Round(seconds/worldRunSeconds)))
}

// measure builds the world max(worldSetups, runs) times and runs it
// after each of the first worldRuns builds. Every build of a seed is
// the same world, so every run must give the same result. A Run is one
// deterministic computation: contention from the rest of the host can
// only slow it down, so the reported rate is the fastest Run's, and its
// heap high-water mark is the highest sample of the Run (the median
// over Runs is reported), not a median of windows as for the workloads
// made of many short jobs.
func (ww *worldWorkload) measure(o options) (*report, error) {
	rep := newReport()
	runs := worldRuns(o.seconds)
	var setups, rates, peaks []float64
	for i := 0; i < max(worldSetups, runs); i++ {
		runtime.GC()
		b, err := buildWorld(o.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, b.setup.Seconds())
		if i >= runs {
			continue // a build for the set-up median only
		}
		// Collect the build's garbage so every Run starts from the same
		// heap and its high-water mark does not depend on where the
		// build's last GC cycle fell.
		runtime.GC()
		hs := startHeapSampler()
		t0 := time.Now()
		res, err := b.w.RunContext(context.Background())
		el := time.Since(t0)
		peaks = append(peaks, slices.Max(hs.stop()))
		rep.attempted++
		if err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		dg, bad := checkWorld(o, res, ww.digest)
		for _, m := range bad {
			rep.fail("run %d: %s", i, m)
		}
		if ww.digest == "" {
			ww.digest = dg
		}
		rates = append(rates, float64(b.nodes)*float64(res.Duration)/el.Seconds())
		rep.notef("run %d: Run %.3fs, %d flows, duration %.1f sim s, delivered %d",
			i, el.Seconds(), len(res.Flows), float64(res.Duration), res.Medium.Delivered)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["work_per_s"] = 0
	if len(rates) > 0 {
		rep.e2e["work_per_s"] = slices.Max(rates)
	}
	rep.e2e["peak_heap_mb"] = median(peaks)
	rep.named = []namedMetric{
		{"node_s_per_s", "node·s/s", rep.e2e["work_per_s"]},
		{"node_s_per_s_median", "node·s/s", median(rates)},
		{"runs", "count", float64(rep.attempted)},
		{"setups", "count", float64(len(setups))},
	}
	return rep, nil
}

// trace builds and runs the world once more with spans, per-phase CPU
// profiles and MemStats deltas.
func (ww *worldWorkload) trace(o options, rec *recorder) (*report, error) {
	rep := newReport()
	runtime.GC()
	mem0 := memMark()
	prof, err := startCPU()
	if err != nil {
		return nil, err
	}
	b, err := buildWorld(o.seed, rec)
	setupCPU, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	setupMem := since(mem0)

	runtime.GC() // as in measure: the Run starts from the same heap
	mem0 = memMark()
	if prof, err = startCPU(); err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	sp := rec.begin("netsim.run", 0, o.seed)
	t0 := time.Now()
	res, err := b.w.RunContext(context.Background())
	el := time.Since(t0)
	rec.end(sp)
	runCPU, perr := prof.stop()
	peak := slices.Max(hs.stop())
	runMem := since(mem0)
	if perr != nil {
		return nil, perr
	}
	rep.attempted++
	if err != nil {
		rep.fail("traced run: %v", err)
	} else {
		_, bad := checkWorld(o, res, ww.digest)
		for _, m := range bad {
			rep.fail("traced run: %s", m)
		}
	}
	rep.e2e["setup_s"] = b.setup.Seconds()
	rep.e2e["work_per_s"] = float64(b.nodes) * float64(res.Duration) / el.Seconds()
	rep.e2e["peak_heap_mb"] = peak

	agg := byName(rec.closed())
	spanS := func(name string) float64 {
		if st := agg[name]; st != nil {
			return st.Total.Seconds()
		}
		return 0
	}
	L := rep.layers
	L["topo.place_s"] = spanS("topo.place")
	L["netsim.new_world_s"] = spanS("netsim.new_world")
	L["routing.add_flow_s"] = spanS("routing.add_flow")
	L["netsim.run_s"] = el.Seconds()
	L["radio.broadcasts"] = float64(res.Medium.Broadcasts)
	L["radio.unicasts"] = float64(res.Medium.Unicasts)
	L["radio.delivered"] = float64(res.Medium.Delivered)
	if res.Medium.Delivered > 0 {
		L["radio.ns_per_delivery"] = float64(el.Nanoseconds()) / float64(res.Medium.Delivered)
	}
	addCPU(L, "", runCPU)
	addCPU(L, "setup.", setupCPU)
	L["runtime.alloc_mb"] = runMem.AllocMB
	L["runtime.gc_cycles"] = runMem.GCCycles
	L["setup.runtime.alloc_mb"] = setupMem.AllocMB
	L["setup.runtime.gc_cycles"] = setupMem.GCCycles
	rep.notef("set-up CPU by layer: %s", topLayers(setupCPU, 8))
	rep.notef("run CPU by layer:    %s", topLayers(runCPU, 8))
	rep.notes = append(rep.notes, spanTable(agg)...)
	return rep, nil
}
