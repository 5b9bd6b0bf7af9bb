package netsim

import (
	"math"

	"repro/internal/energy"
	"repro/internal/geom"
)

// nodeStore is the world's struct-of-arrays node state: the fields every
// hot loop touches — position, battery, alive flag, grid cell — live in
// dense parallel slices indexed by NodeID, so scans (metrics samples,
// snapshots, beacon rounds) stream through
// contiguous memory instead of chasing *node pointers. The per-node
// protocol state that only matters when a node is actively involved in
// traffic (flow table, AODV instance) stays on the node struct.
//
// batteries is a value slice sized once at NewWorld and never resized,
// so &batteries[i] is stable and can back radio.Network.Battery.
type nodeStore struct {
	pos       []geom.Point
	batteries []energy.Battery
	dead      []bool
	// cellX/cellY are the node's current grid cell coordinates under the
	// radio-range cell size, maintained on every move. They detect cell
	// crossings for the cached broadcast receiver sets without querying
	// the index.
	cellX []int32
	cellY []int32
}

// newNodeStore builds the dense state for n nodes from the caller's
// placement and energy slices (copied; negative energies were validated
// by NewWorld).
func newNodeStore(positions []geom.Point, energies []float64, cellSize float64) nodeStore {
	n := len(positions)
	st := nodeStore{
		pos:       append([]geom.Point(nil), positions...),
		batteries: make([]energy.Battery, n),
		dead:      make([]bool, n),
		cellX:     make([]int32, n),
		cellY:     make([]int32, n),
	}
	for i := range st.batteries {
		st.batteries[i] = *energy.NewBattery(energies[i])
		st.cellX[i], st.cellY[i] = cellCoords(positions[i], cellSize)
	}
	return st
}

// cellCoords returns p's grid cell under the given cell size, using the
// same floor convention as spatial.Grid.
func cellCoords(p geom.Point, cell float64) (int32, int32) {
	return cellCoord(p.X, cell), cellCoord(p.Y, cell)
}

// cellCoord clamps like spatial.Grid — NaN maps to cell 0 — and then
// saturates to int32, so far-out and non-finite coordinates get a
// defined cell instead of an implementation-defined float conversion.
func cellCoord(v, cell float64) int32 {
	c := math.Floor(v / cell)
	switch {
	case c < math.MinInt32:
		return math.MinInt32
	case c > math.MaxInt32:
		return math.MaxInt32
	case c != c:
		return 0
	}
	return int32(c)
}

// pos returns the node's current position from the dense store.
func (n *node) pos() geom.Point { return n.world.store.pos[n.id] }

// dead reports whether the node is dead (depleted or crashed).
func (n *node) dead() bool { return n.world.store.dead[n.id] }

// battery returns the node's battery; the pointer is stable because the
// store's battery slice is sized once at NewWorld.
func (n *node) battery() *energy.Battery { return &n.world.store.batteries[n.id] }

// moveNode is the single write path for node positions: it updates the
// dense store, the node's cell coordinates, and the spatial index.
func (w *World) moveNode(id NodeID, p geom.Point) {
	st := &w.store
	st.pos[id] = p
	st.cellX[id], st.cellY[id] = cellCoords(p, w.cellSize)
	w.index.Move(id, p)
}

// recvCache is one node's cached broadcast receiver set (see
// AppendReceivers): the ids last returned for this sender, plus the grid
// region stamp and query cell they were computed under.
type recvCache struct {
	ids      []NodeID
	stamp    uint64
	cx, cy   int32
	everInit bool
}

// Len implements radio.Network: the world's node count.
func (w *World) Len() int { return len(w.store.pos) }

// Position implements radio.Network from the dense store.
func (w *World) Position(id NodeID) geom.Point { return w.store.pos[id] }

// Battery implements radio.Network; the pointer is stable (see nodeStore).
func (w *World) Battery(id NodeID) *energy.Battery { return &w.store.batteries[id] }

// AppendReceivers implements radio.Network: the broadcast receiver set of
// node from, served from a per-sender cache. The cache is reused only
// while the sender's cell and the grid's RegionStamp over its query
// rectangle are unchanged — conditions under which the underlying range
// query provably returns the same ids — so results are byte-identical to
// querying the index every time, and a fully stationary neighborhood
// recomputes zero snapshots (TestStaleStationaryZeroRecomputes pins it).
func (w *World) AppendReceivers(dst []NodeID, from NodeID, r float64) []NodeID {
	p := w.store.pos[from]
	if w.grid == nil || r != w.cfg.Radio.Range {
		return w.index.AppendInRange(dst, p, r)
	}
	c := &w.recv[from]
	cx, cy := w.store.cellX[from], w.store.cellY[from]
	stamp := w.grid.RegionStamp(p, r)
	if !c.everInit || c.cx != cx || c.cy != cy || c.stamp != stamp {
		c.ids = w.index.AppendInRange(c.ids[:0], p, r)
		c.cx, c.cy, c.stamp = cx, cy, stamp
		c.everInit = true
		w.recvRefreshes++
	}
	return append(dst, c.ids...)
}
