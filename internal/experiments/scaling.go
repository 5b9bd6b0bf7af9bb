package experiments

// The scaling experiment: wall-clock throughput of the full world across
// node-count rungs. The paper's evaluation stops at tens of nodes; the
// struct-of-arrays store and grid index exist to push the same simulation
// to 100k nodes, and this driver measures what that buys — a per-node-count
// table of wall-clock seconds and simulated node-seconds per wall second
// (EXPERIMENTS.md "Scaling to 100k"). The scenario mirrors netsim's
// BenchmarkWorld100k builder so the figure and the benchgate pin the same
// workload.
//
// Unlike the other drivers this one measures wall time, so its numbers
// are machine-dependent by design; the simulation results per rung stay
// deterministic.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/motion"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// ScalingParams configures the scaling sweep.
type ScalingParams struct {
	// Nodes lists the node-count rungs, each run once.
	Nodes []int
	// FlowsPerK is the flow count per thousand nodes (rounded up to at
	// least one), keeping offered load proportional to network size.
	FlowsPerK int
	// Seed seeds node placement.
	Seed int64
	// TargetDegree is the expected radio-neighbor count the field side is
	// sized for (the scenario keeps density constant across rungs).
	TargetDegree float64
	// Horizon is the virtual-time stop per run.
	Horizon sim.Time
}

// ParamsScaling returns the default sweep: the benchmark rungs up to 100k
// nodes, ~15 expected radio neighbors, Gauss-Markov ambient drift.
func ParamsScaling() ScalingParams {
	return ScalingParams{
		Nodes:        []int{5000, 20000, 100000},
		FlowsPerK:    10,
		Seed:         9001,
		TargetDegree: 15,
		Horizon:      1e5,
	}
}

// ScalingCell is one node-count measurement.
type ScalingCell struct {
	Nodes int
	Flows int
	// WallSeconds is the wall-clock duration of the Run call (world
	// construction and flow planning are excluded, as in the benchmark).
	WallSeconds float64
	// SimSeconds is the virtual time the run covered.
	SimSeconds float64
	// NodeSimPerWall is the throughput figure: simulated node-seconds
	// advanced per wall-clock second (nodes × SimSeconds / WallSeconds).
	NodeSimPerWall float64
	// Completed is the fraction of flows that delivered every bit — a
	// sanity check that the workload is a real traffic scenario, not an
	// idle world.
	Completed float64
	// TotalJ is the network-wide energy spend.
	TotalJ float64
}

// ScalingResult is the full per-node-count table.
type ScalingResult struct {
	Params ScalingParams
	Cells  []ScalingCell
}

// RunScaling measures every rung, one after another (the cells time wall
// clock, so they must not compete for cores).
func RunScaling(p ScalingParams) (*ScalingResult, error) {
	if len(p.Nodes) == 0 {
		return nil, errors.New("experiments: empty scaling sweep")
	}
	res := &ScalingResult{Params: p}
	for _, n := range p.Nodes {
		flows := (n*p.FlowsPerK + 999) / 1000
		if flows < 1 {
			flows = 1
		}
		w, err := buildScalingWorld(p, n, flows)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := w.Run()
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		completed := 0
		for _, fo := range r.Flows {
			if fo.Completed {
				completed++
			}
		}
		cell := ScalingCell{
			Nodes:       n,
			Flows:       len(r.Flows),
			WallSeconds: wall,
			SimSeconds:  float64(r.Duration),
			Completed:   float64(completed) / float64(len(r.Flows)),
			TotalJ:      r.Energy.Total(),
		}
		if wall > 0 {
			cell.NodeSimPerWall = float64(n) * cell.SimSeconds / wall
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// buildScalingWorld constructs one rung's world: n nodes placed uniformly
// at constant density, Gauss-Markov ambient drift, and short multi-hop
// flows found by bounded BFS from rotating start nodes (linear in n, so
// setup never dominates the measured run).
func buildScalingWorld(p ScalingParams, n, flows int) (*netsim.World, error) {
	r := netsim.DefaultConfig().Radio.Range
	side := math.Sqrt(float64(n) * math.Pi * r * r / p.TargetDegree)
	src := stats.NewSource(p.Seed)
	pts := topo.PlaceUniform(src, n, side, side)
	energies := make([]float64, n)
	for i := range energies {
		energies[i] = 1e6
	}
	cfg := netsim.DefaultConfig()
	cfg.Mode = netsim.ModeNoMobility
	cfg.Motion = &motion.Config{
		Model: motion.ModelGaussMarkov, Seed: 7,
		FieldW: side, FieldH: side,
		SpeedLo: 0.5, SpeedHi: 1.5,
	}
	cfg.Horizon = p.Horizon
	w, err := netsim.NewWorld(cfg, pts, energies)
	if err != nil {
		return nil, err
	}
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	visited := make([]int, n)
	for i := range visited {
		visited[i] = -1
	}
	var queue []netsim.NodeID
	added := 0
	for start := 0; start < n && added < flows; start += n/flows + 1 {
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = start
		dst, depth := -1, 0
		frontierEnd := 1
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
		if _, err := w.AddFlow(netsim.FlowSpec{Src: start, Dst: dst, LengthBits: 4 * cfg.PacketBits}); err != nil {
			continue // unroutable corner placement; density makes this rare
		}
		added++
	}
	if added < flows/2 {
		return nil, fmt.Errorf("experiments: only %d of %d flows routable at n=%d; placement density off", added, flows, n)
	}
	return w, nil
}
