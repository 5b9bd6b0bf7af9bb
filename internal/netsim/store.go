package netsim

import (
	"repro/internal/energy"
	"repro/internal/geom"
)

// nodeStore is the world's struct-of-arrays node state: the fields every
// hot loop touches — position, battery, alive flag — live in dense
// parallel slices indexed by NodeID, so scans (metrics samples,
// snapshots, beacon rounds) stream through contiguous memory instead of
// chasing *node pointers. The per-node protocol state that only matters
// when a node is actively involved in traffic (flow table, AODV instance)
// stays on the node struct.
//
// batteries is a value slice sized once at NewWorld and never resized,
// so &batteries[i] is stable and can back radio.Network.Battery.
type nodeStore struct {
	pos       []geom.Point
	batteries []energy.Battery
	dead      []bool
}

// newNodeStore builds the dense state for n nodes from the caller's
// placement and energy slices (copied; negative energies were validated
// by NewWorld).
func newNodeStore(positions []geom.Point, energies []float64) nodeStore {
	n := len(positions)
	st := nodeStore{
		pos:       append([]geom.Point(nil), positions...),
		batteries: make([]energy.Battery, n),
		dead:      make([]bool, n),
	}
	for i := range st.batteries {
		st.batteries[i] = *energy.NewBattery(energies[i])
	}
	return st
}

// pos returns the node's current position from the dense store.
func (n *node) pos() geom.Point { return n.world.store.pos[n.id] }

// dead reports whether the node is dead (depleted or crashed).
func (n *node) dead() bool { return n.world.store.dead[n.id] }

// battery returns the node's battery; the pointer is stable because the
// store's battery slice is sized once at NewWorld.
func (n *node) battery() *energy.Battery { return &n.world.store.batteries[n.id] }

// moveNode is the single write path for node positions: it updates the
// dense store and the spatial index.
func (w *World) moveNode(id NodeID, p geom.Point) {
	w.store.pos[id] = p
	w.index.Move(id, p)
}

// Len implements radio.Network: the world's node count.
func (w *World) Len() int { return len(w.store.pos) }

// Position implements radio.Network from the dense store.
func (w *World) Position(id NodeID) geom.Point { return w.store.pos[id] }

// Battery implements radio.Network; the pointer is stable (see nodeStore).
func (w *World) Battery(id NodeID) *energy.Battery { return &w.store.batteries[id] }

// AppendReceivers implements radio.Network: the broadcast receiver set of
// node from, one range query on the spatial index.
func (w *World) AppendReceivers(dst []NodeID, from NodeID, r float64) []NodeID {
	return w.index.AppendInRange(dst, w.store.pos[from], r)
}
