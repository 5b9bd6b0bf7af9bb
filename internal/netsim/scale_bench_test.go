package netsim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The BenchmarkWorld100k family pins the scaling target of the
// struct-of-arrays + lookahead-scheduler work: a 100k-node, 1000-flow
// world with ambient mobility must complete in minutes, not hours. The
// smaller rungs are cheap enough for the benchgate ratchet; the n100k
// rung runs once per gate invocation (see the Makefile's benchgate
// targets) so the headline number stays pinned in bench_baseline.txt.

// buildScaleWorld places n nodes uniformly at ~15 expected radio
// neighbors, arms ambient Gauss-Markov drift, and adds `flows` short
// flows between endpoints a few hops apart (found by bounded BFS, so
// setup stays linear in n instead of planning cross-field routes).
func buildScaleWorld(tb testing.TB, nodes, flows int, parallel bool, shards int) *World {
	tb.Helper()
	const targetDegree = 15
	side := math.Sqrt(float64(nodes) * math.Pi * 200 * 200 / targetDegree)
	src := stats.NewSource(9001)
	pts := topo.PlaceUniform(src, nodes, side, side)
	energies := make([]float64, nodes)
	for i := range energies {
		energies[i] = 1e6
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	cfg.NeighborIndex = spatial.KindGrid
	cfg.Motion = &motion.Config{
		Model: motion.ModelGaussMarkov, Seed: 7,
		FieldW: side, FieldH: side,
		SpeedLo: 0.5, SpeedHi: 1.5,
	}
	cfg.Parallel = parallel
	cfg.Shards = shards
	cfg.Horizon = 1e5
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	// Deterministic endpoints: BFS four hops out from a rotating start
	// node and pick the last node discovered — a genuine multi-hop flow
	// whose path length is independent of the field size.
	visited := make([]int, nodes)
	for i := range visited {
		visited[i] = -1
	}
	var queue []NodeID
	added := 0
	for start := 0; start < nodes && added < flows; start += nodes/flows + 1 {
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
		if _, err := w.AddFlow(FlowSpec{Src: start, Dst: dst, LengthBits: 4 * cfg.PacketBits}); err != nil {
			continue // unroutable corner placement; density makes this rare
		}
		added++
	}
	if added < flows/2 {
		tb.Fatalf("only %d of %d flows routable; placement density off", added, flows)
	}
	return w
}

// BenchmarkWorld100k measures full-world runs across node-count rungs and
// both schedulers. Setup (placement, seeding, flow planning) is untimed;
// the measured region is the event-loop run itself, also reported per
// radio delivery (ns/delivery).
func BenchmarkWorld100k(b *testing.B) {
	rungs := []struct {
		name         string
		nodes, flows int
	}{
		{"n5k", 5000, 50},
		{"n20k", 20000, 200},
		{"n100k", 100000, 1000},
	}
	modes := []struct {
		name     string
		parallel bool
		shards   int
	}{
		{"serial", false, 0},
		{"shards8", true, 8},
	}
	for _, r := range rungs {
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s-%s", r.name, m.name), func(b *testing.B) {
				var run time.Duration
				var delivered uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := buildScaleWorld(b, r.nodes, r.flows, m.parallel, m.shards)
					b.StartTimer()
					start := time.Now()
					res, err := w.Run()
					run += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Flows) == 0 {
						b.Fatal("no flow outcomes")
					}
					delivered += res.Medium.Delivered
				}
				// Per-layer cost over a deterministic denominator: the
				// medium's delivery count is fixed by the scenario, so
				// ns/delivery moves only with the cost of a delivery.
				b.ReportMetric(float64(run.Nanoseconds())/float64(delivered), "ns/delivery")
			})
		}
	}
}

// TestScaleWorldSmoke keeps the benchmark scenario builder honest in the
// ordinary test run: a scaled-down rung must complete with most flows
// delivered, under both schedulers, with identical results.
func TestScaleWorldSmoke(t *testing.T) {
	run := func(parallel bool, shards int) Result {
		w := buildScaleWorld(t, 2000, 20, parallel, shards)
		res, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(false, 0)
	parallel := run(true, 4)
	if serial.Duration != parallel.Duration || serial.Energy != parallel.Energy {
		t.Errorf("scale scenario diverged across schedulers: serial %+v vs parallel %+v",
			serial.Energy, parallel.Energy)
	}
	completed := 0
	for _, fo := range serial.Flows {
		if fo.Completed {
			completed++
		}
	}
	if completed < len(serial.Flows)/2 {
		t.Errorf("only %d/%d flows completed in scale scenario", completed, len(serial.Flows))
	}
}

// TestGraphBeforeRunIsSnapshot pins World.Graph as a snapshot: a graph
// taken before Run keeps answering for the t=0 placement after ambient
// drift has moved the nodes — Pos, Connected and Neighbors all agree —
// while a graph taken after Run sees the moved positions.
func TestGraphBeforeRunIsSnapshot(t *testing.T) {
	w := buildScaleWorld(t, 2000, 20, false, 0)
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := w.Graph(); again != g {
		t.Error("Graph before Run rebuilt instead of serving the cached t=0 graph")
	}
	placed := append([]geom.Point(nil), w.store.pos...)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	moved, disagree := 0, 0
	var nbs []NodeID
	for i := range placed {
		if w.store.pos[i] != placed[i] {
			moved++
		}
		if g.Pos(i) != placed[i] {
			t.Fatalf("pre-Run graph reports node %d at %v, placed at %v", i, g.Pos(i), placed[i])
		}
		nbs = g.AppendNeighbors(nbs[:0], i)
		for _, j := range nbs {
			if !g.Connected(i, j) {
				disagree++
				break
			}
		}
	}
	if moved == 0 {
		t.Fatal("no node moved; the scenario no longer exercises drift")
	}
	if disagree > 0 {
		t.Errorf("%d of %d nodes: Neighbors and Connected disagree on the pre-Run graph", disagree, len(placed))
	}
	after, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for i := range placed {
		if after.Pos(i) != w.store.pos[i] {
			t.Fatalf("post-Run graph reports node %d at %v, now at %v", i, after.Pos(i), w.store.pos[i])
		}
	}
}
