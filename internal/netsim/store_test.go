package netsim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/hello"
)

// TestCellCoordClamp pins cellCoord on far-out and non-finite inputs:
// like spatial.Grid it maps NaN to cell 0, and it saturates to int32
// instead of leaving the float conversion implementation-defined.
func TestCellCoordClamp(t *testing.T) {
	cases := []struct {
		v    float64
		want int32
	}{
		{0, 0},
		{199.9, 0},
		{200, 1},
		{-0.1, -1},
		{-400, -2},
		{1e300, math.MaxInt32},
		{-1e300, math.MinInt32},
		{math.Inf(1), math.MaxInt32},
		{math.Inf(-1), math.MinInt32},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := cellCoord(c.v, 200); got != c.want {
			t.Errorf("cellCoord(%v, 200) = %d, want %d", c.v, got, c.want)
		}
	}
	if x, y := cellCoords(geom.Pt(math.NaN(), -1e300), 200); x != 0 || y != math.MinInt32 {
		t.Errorf("cellCoords(NaN, -1e300) = (%d, %d), want (0, %d)", x, y, int32(math.MinInt32))
	}
}

// TestSeedArenaOverflowStaysLocal drifts three nodes into the range of a
// node whose seeded table has two spare slots, so their beacons push the
// table past the room carved for it in the arena, and checks that the
// tables carved after it keep exactly their seeded entries.
func TestSeedArenaOverflowStaysLocal(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0),      // 0: hears 5 only
		geom.Pt(5000, 0),   // 1: hears 2 only
		geom.Pt(5100, 0),   // 2: hears 1 only
		geom.Pt(10000, 0),  // 3: drifts to 0
		geom.Pt(10000, 0),  // 4: drifts to 0
		geom.Pt(0, 100),    // 5: hears 0 only
		geom.Pt(20000, 50), // 6: isolated
		geom.Pt(10000, 0),  // 7: drifts to 0
	}
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = 1e6
	}
	w, err := NewWorld(DefaultConfig(), pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	seeded := func(id NodeID) map[NodeID]hello.Entry {
		out := map[NodeID]hello.Entry{}
		for nb := range pts {
			if e, ok := w.tables[id].Get(nb, 0); ok {
				out[nb] = e
			}
		}
		return out
	}
	before := make([]map[NodeID]hello.Entry, len(pts))
	for id := range pts {
		before[id] = seeded(id)
	}
	drift := []NodeID{3, 4, 7}
	w.moveNode(3, geom.Pt(-100, 0))
	w.moveNode(4, geom.Pt(0, -100))
	w.moveNode(7, geom.Pt(100, 0))
	for _, id := range drift {
		w.nodes[id].sendBeacon()
	}

	for _, nb := range []NodeID{3, 4, 5, 7} {
		if _, ok := w.tables[0].Get(nb, 0); !ok {
			t.Errorf("node 0 did not learn neighbor %d", nb)
		}
	}
	for _, id := range []NodeID{1, 2, 5, 6} {
		after := seeded(id)
		if id == 5 {
			// Node 5 sits within range of the drifting nodes too.
			for _, d := range drift {
				delete(after, d)
			}
		}
		if len(after) != len(before[id]) {
			t.Errorf("node %d table = %v, seeded %v", id, after, before[id])
			continue
		}
		for nb, e := range before[id] {
			if after[nb] != e {
				t.Errorf("node %d entry %d = %+v, seeded %+v", id, nb, after[nb], e)
			}
		}
	}
}

// TestStaleStationaryZeroRecomputes pins the receiver cache behind
// AppendReceivers on a world where nothing moves: a four-node chain with
// both triggered-update thresholds at zero, so every live node beacons
// every round. Each sender computes its receiver set once and then
// reuses it for the rest of the run.
func TestStaleStationaryZeroRecomputes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeNoMobility
	cfg.BeaconMoveEps, cfg.BeaconEnergyFrac = 0, 0
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(150, 0), geom.Pt(300, 0), geom.Pt(450, 0)}
	w, err := NewWorld(cfg, pts, []float64{500, 500, 500, 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 5e5}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Medium.Broadcasts == 0 {
		t.Fatal("no HELLO broadcasts; the cache was never exercised")
	}
	if w.recvRefreshes > uint64(len(pts)) {
		t.Errorf("stationary world recomputed receiver sets: %d refreshes for %d nodes over %d broadcasts",
			w.recvRefreshes, len(pts), res.Medium.Broadcasts)
	}
}
