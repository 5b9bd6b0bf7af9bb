package netsim

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/hello"
)

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
