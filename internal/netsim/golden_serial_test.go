package netsim

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Serial golden digests: each scenario below folds its whole Result into
// one FNV-1a digest of the Result's JSON, so any drift in any reported
// field — per-node state, energy ledger, medium, transport and fault
// counters, flow outcomes — fails here. They cover paths the golden
// fingerprints reach only partly: every ambient motion model, every
// registered strategy, and the full fault layer (loss, retry, repair,
// crash and recovery).

// resultDigest is the FNV-1a digest of res marshaled as JSON.
func resultDigest(t *testing.T, res Result) uint64 {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// goldenWorldResult runs the canonical 60-node scenario behind the
// zero-fault golden fingerprints (seed 42 on an 800 m field, one 4 Mb
// flow from node 0 to the first destination greedy routing reaches over
// at least two relays) and returns its Result. Mutators tweak the config
// before the world is built.
func goldenWorldResult(t *testing.T, mode Mode, mutate ...func(*Config)) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	for _, m := range mutate {
		m(&cfg)
	}
	src := stats.NewSource(42)
	pts := topo.PlaceUniform(src, 60, 800, 800)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(5000, 10000)
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	dst := -1
	for j := 1; j < len(pts); j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 4 {
			dst = j
			break
		}
	}
	if dst < 0 {
		t.Fatal("no routable flow endpoint found")
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: dst, LengthBits: 4e6}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismSerialFaulty pins the fault layer end to end on the
// canonical scenario: a lossy channel, the retry/ack transport, route
// repair, and a relay that crashes and recovers.
func TestDeterminismSerialFaulty(t *testing.T) {
	const want uint64 = 0xad31df3c0c95d787
	res := goldenWorldResult(t, ModeInformed, func(cfg *Config) {
		cfg.Faults = &fault.Config{
			LossP: 0.05, Seed: 7,
			RetryLimit: 3, RetryTimeout: 0.25,
			RouteRepair: true,
			Crashes:     []fault.Crash{{Node: 3, At: 40, RecoverAt: 200}},
		}
	})
	if got := resultDigest(t, res); got != want {
		t.Errorf("faulty Result digest %#x, want %#x (transport %+v, faults %+v)",
			got, want, res.Transport, res.Faults)
	}
}

// motionGoldenResult runs one ambient-motion world: 48 nodes drifting
// under the named model on a 700 m field for 600 s, carrying up to three
// flows from node 0.
func motionGoldenResult(t *testing.T, model string) Result {
	t.Helper()
	src := stats.NewSource(1234)
	pts := topo.PlaceUniform(src, 48, 700, 700)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(2000, 6000)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	cfg.Horizon = 600
	cfg.Motion = &motion.Config{
		Model: model, Seed: 5, FieldW: 700, FieldH: 700,
		SpeedLo: 0.5, SpeedHi: 2,
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	for j := 1; j < len(pts) && added < 3; j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 3 {
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: j, LengthBits: 2e6}); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if added == 0 {
		t.Fatal("no routable flows in motion scenario")
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismSerialMotion pins every ambient motion model, including
// the group model whose members share one random stream.
func TestDeterminismSerialMotion(t *testing.T) {
	golden := map[string]uint64{
		motion.ModelRandomWaypoint: 0x3105c5c1f97a5744,
		motion.ModelGaussMarkov:    0x3b4430bf28963759,
		motion.ModelRPGM:           0x3402e14225f547cd,
	}
	for model, want := range golden {
		t.Run(model, func(t *testing.T) {
			if got := resultDigest(t, motionGoldenResult(t, model)); got != want {
				t.Errorf("model=%s: Result digest %#x, want %#x", model, got, want)
			}
		})
	}
}

// strategyGoldenResult runs the named strategy on a 40-node placement in
// cost-unaware mode, so relays act on every packet: one 10 Mb flow from
// node 0 to the first destination greedy routing reaches over at least
// two relays. Cheap locomotion (k = 0.05 J/m) and widely spread batteries
// (200–4000 J) make every registered strategy choose differently, so each
// digest below is distinct.
func strategyGoldenResult(t *testing.T, name string) Result {
	t.Helper()
	table, err := energy.NewPowerTable(energy.DefaultTxModel(), 200, 64)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := mobility.New(name, mobility.Env{
		Tx: energy.DefaultTxModel(), Range: 200,
		Table:    table,
		Mobility: energy.MobilityModel{K: 0.05},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeCostUnaware
	cfg.Strategy = strat
	cfg.Mobility = energy.MobilityModel{K: 0.05}
	cfg.Horizon = 2000
	src := stats.NewSource(77)
	pts := topo.PlaceUniform(src, 40, 600, 600)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(200, 4000)
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	dst := -1
	for j := 1; j < len(pts); j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 4 {
			dst = j
			break
		}
	}
	if dst < 0 {
		t.Fatal("no routable flow endpoint found")
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: dst, LengthBits: 1e7}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismSerialStrategies pins every registered strategy.
// Strategies differ in how relays move and how routes are planned, so
// together they cover the movement and routing paths the canonical
// scenario reaches for one strategy only. A newly registered strategy
// fails here until its digest is recorded.
func TestDeterminismSerialStrategies(t *testing.T) {
	golden := map[string]uint64{
		"cluster-rotation":     0x31158c9836c4f286,
		"max-lifetime":         0x4a323da340a66bc4,
		"max-lifetime-exact":   0x7fbed1cdf07ad1f0,
		"max-lifetime-routing": 0x8cc8c4db9e1f6044,
		"min-energy":           0x8629dd3cc29858cf,
		"rolling-horizon":      0xb03993b7e4549b96,
		"stationary":           0x1d2eaac7ccda4d9a,
	}
	for _, name := range mobility.Names() {
		t.Run(name, func(t *testing.T) {
			want, pinned := golden[name]
			if got := resultDigest(t, strategyGoldenResult(t, name)); !pinned || got != want {
				t.Errorf("strategy=%s: Result digest %#x, want %#x (pinned %v)", name, got, want, pinned)
			}
		})
	}
}
