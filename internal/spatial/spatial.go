// Package spatial provides the simulator's neighbor indexes: dynamic
// planar point sets answering "which nodes lie within radius r of point
// p?". The uniform Grid answers in O(k) for k reported neighbors by
// bucketing points into radio-range-sized cells held in a dense table
// (no hashing, O(n) memory whatever the coordinates), replacing the O(n)
// scans that capped the simulator at paper scale (100 nodes); the Brute
// index is the straightforward linear scan, kept as the reference
// implementation for differential testing.
//
// Both implementations honor the same contract so they are drop-in
// interchangeable:
//
//   - membership is judged on squared Euclidean distance,
//     Dist2(p, q) <= r*r, so boundary points at exactly radius r are
//     included and grid and brute-force answers agree bit-for-bit;
//   - query results are returned in ascending ID order, preserving the
//     simulator's determinism guarantee (one seed, one byte-identical
//     run) regardless of which index serves the query;
//   - IDs are dense non-negative integers chosen by the caller: the
//     grid indexes a slice by ID, so its memory grows with the largest
//     ID in use. Every caller passes node indexes.
//
// The package is deliberately dependency-free (geom only) so every layer
// — topo graphs, the radio medium, netsim worlds, experiment drivers —
// can share one index.
package spatial

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Index is a dynamic set of identified points supporting range queries.
// Implementations must return query results in ascending ID order and
// judge membership by squared distance (see the package comment).
type Index interface {
	// Insert adds id at p. Inserting an existing id relocates it (Insert
	// and Move are synonyms; both exist so call sites read naturally).
	Insert(id int, p geom.Point)
	// Move relocates id to p, inserting it if absent.
	Move(id int, p geom.Point)
	// Remove deletes id. Removing an absent id is a no-op.
	Remove(id int)
	// Len returns the number of indexed points.
	Len() int
	// InRange returns the IDs of every point q with Dist2(p, q) <= r*r,
	// in ascending ID order. A negative radius yields nil.
	InRange(p geom.Point, r float64) []int
	// AppendInRange appends the InRange result to dst and returns the
	// extended slice. It performs no allocation when dst has capacity,
	// which keeps the simulator's per-beacon queries allocation-free.
	AppendInRange(dst []int, p geom.Point, r float64) []int
}

// Kind names an Index implementation.
type Kind string

// The available index implementations.
const (
	// KindGrid is the uniform-grid index: O(k) queries, O(1) updates.
	KindGrid Kind = "grid"
	// KindBrute is the exhaustive linear scan: O(n) queries, the
	// reference implementation grid answers are tested against.
	KindBrute Kind = "brute"
)

// New returns an empty index of the given kind. cellSize sizes the grid
// cells — the query radius the index will mostly serve (the radio range)
// is the natural choice — and is ignored by the brute-force index. The
// empty kind builds a grid.
func New(kind Kind, cellSize float64) (Index, error) {
	switch kind {
	case "", KindGrid:
		return NewGrid(cellSize)
	case KindBrute:
		return NewBrute(), nil
	default:
		return nil, fmt.Errorf("spatial: unknown index kind %q", string(kind))
	}
}

// FromPoints builds an index of the given kind over pts, with point i
// indexed under ID i — the layout of every parallel node slice in the
// simulator.
func FromPoints(kind Kind, cellSize float64, pts []geom.Point) (Index, error) {
	idx, err := New(kind, cellSize)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		idx.Insert(i, p)
	}
	return idx, nil
}

// cellKey addresses one grid cell by its integer cell coordinates.
type cellKey struct{ cx, cy int }

// gridEntry is one bucketed point: the ID and its exact position. The
// position lives in the bucket so range queries filter candidates with a
// cache-friendly slice scan instead of one lookup per candidate.
type gridEntry struct {
	id  int
	pos geom.Point
}

// gridPlace records where an ID currently lives: its cell and its index
// within that cell's bucket (maintained across swap-deletes).
type gridPlace struct {
	key  cellKey
	idx  int
	live bool
}

const (
	// minTableSide is the side of a fresh grid's slot table; a
	// paper-scale world (100 nodes) fits without a resize.
	minTableSide = 16
	// maxCellCoord clamps cell coordinates so that coordinate spans never
	// overflow and far-out or non-finite positions still map to a cell.
	// Clamping is monotone, so every point within r of p still falls
	// inside the query rectangle computed from p and r.
	maxCellCoord = 1 << 53
	// shrinkCap is the largest bucket capacity kept however empty the
	// bucket gets; a larger bucket is reallocated once it falls under a
	// quarter full, so bucket storage stays O(points + slots) however
	// points wander.
	shrinkCap = 16
)

// Grid is a uniform-grid Index: the plane is cut into cellSize×cellSize
// cells and each point is bucketed by its cell. A range query visits only
// the cells overlapping the query disk's bounding box — with cellSize
// equal to the query radius that is at most 9 cells regardless of how
// many points the index holds, so queries cost O(k) in the number of
// points near the query, not O(n) in the index size.
//
// Cells are not stored one by one. Cell (cx, cy) lives in slot
// (cx & mask, cy & mask) of a dense power-of-two square table, so cells a
// table side apart alias onto one slot. The table side doubles whenever
// Len exceeds the slot count, so memory is O(Len) whatever coordinates
// the points carry, and a world whose cells fit inside the table (a
// 100k-node world is about 145 cells a side and gets a 512² table) sees
// no aliasing at all. Aliasing never changes an answer: a query visits
// each slot at most once and every candidate passes the exact distance
// filter.
//
// Grid is not safe for concurrent use; like the rest of the simulator it
// is single-threaded within one world (parallel sweeps give each trial
// its own world and therefore its own index).
type Grid struct {
	cell float64
	// slots holds, per slot of the side×side table (row-major in
	// (cy & mask, cx & mask)), the points of every cell aliasing onto it.
	slots [][]gridEntry
	side  int
	where []gridPlace
	n     int
	// bounds clamp query scans to cells that have ever been occupied, so
	// a huge query radius degrades to the brute-force cost instead of
	// iterating empty space. They only grow; stale slack is harmless.
	minC, maxC cellKey
	hasBounds  bool
	// rebuckets counts relocations across cell boundaries. Moves within a
	// cell update the bucketed position in place and do not count — the
	// invariant that keeps high-frequency small-step mobility (ambient
	// motion at ~1 m/s against radio-range-sized cells) O(1) on the
	// common path.
	rebuckets uint64
}

var _ Index = (*Grid)(nil)

// NewGrid returns an empty grid with the given cell side length. The cell
// size must be positive and finite; the query radius the grid will serve
// (the radio range) is the natural choice.
func NewGrid(cellSize float64) (*Grid, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("spatial: invalid grid cell size %v", cellSize)
	}
	g := &Grid{cell: cellSize}
	g.setSide(minTableSide)
	return g, nil
}

// setSide installs an empty side×side slot table.
func (g *Grid) setSide(side int) {
	g.side = side
	g.slots = make([][]gridEntry, side*side)
}

// CellSize returns the grid's cell side length.
func (g *Grid) CellSize() float64 { return g.cell }

// Rebuckets returns how many Insert/Move calls relocated an existing id
// across a cell boundary. Within-cell moves are updated in place and do
// not count; the ambient-mobility layer relies on this (a node stepping
// ~1 m against 200 m cells re-buckets roughly once per 200 steps), and
// the 100k-node scaling work will budget against this counter.
func (g *Grid) Rebuckets() uint64 { return g.rebuckets }

// coord returns the clamped cell coordinate containing v.
func (g *Grid) coord(v float64) int {
	c := math.Floor(v / g.cell)
	switch {
	case c < -maxCellCoord:
		return -maxCellCoord
	case c > maxCellCoord:
		return maxCellCoord
	case c != c: // NaN: any cell will do, no distance test passes
		return 0
	}
	return int(c)
}

// keyOf returns the cell containing p.
func (g *Grid) keyOf(p geom.Point) cellKey {
	return cellKey{cx: g.coord(p.X), cy: g.coord(p.Y)}
}

// slotOf returns the table slot cell k aliases onto.
func (g *Grid) slotOf(k cellKey) int {
	mask := g.side - 1
	return (k.cy&mask)*g.side + k.cx&mask
}

// Insert implements Index. IDs index a slice, so they must be dense
// non-negative integers (see the package comment).
func (g *Grid) Insert(id int, p geom.Point) {
	k := g.keyOf(p)
	if id >= len(g.where) {
		g.where = append(g.where, make([]gridPlace, id+1-len(g.where))...)
	}
	if pl := &g.where[id]; pl.live {
		if pl.key == k {
			// Same cell: update the bucketed position in place.
			g.slots[g.slotOf(k)][pl.idx].pos = p
			return
		}
		g.rebuckets++
		g.unbucket(*pl)
	} else {
		g.n++
		if g.n > len(g.slots) {
			g.resize(2 * g.side)
		}
	}
	b := &g.slots[g.slotOf(k)]
	g.where[id] = gridPlace{key: k, idx: len(*b), live: true}
	*b = append(*b, gridEntry{id: id, pos: p})
	g.grow(k)
}

// Move implements Index.
func (g *Grid) Move(id int, p geom.Point) { g.Insert(id, p) }

// Remove implements Index.
func (g *Grid) Remove(id int) {
	if id < 0 || id >= len(g.where) || !g.where[id].live {
		return
	}
	pl := g.where[id]
	g.unbucket(pl)
	g.where[id].live = false
	g.n--
}

// unbucket removes the entry at pl from its bucket (swap-delete; bucket
// order is irrelevant because queries sort their results). The
// swapped-in entry's index is patched so where stays consistent.
func (g *Grid) unbucket(pl gridPlace) {
	b := &g.slots[g.slotOf(pl.key)]
	last := len(*b) - 1
	if pl.idx != last {
		moved := (*b)[last]
		(*b)[pl.idx] = moved
		g.where[moved.id].idx = pl.idx
	}
	*b = (*b)[:last]
	if c := cap(*b); c > shrinkCap && last < c/4 {
		*b = append([]gridEntry(nil), *b...)
	}
}

// resize rebuilds the table at the given side, rebucketing every live
// point.
func (g *Grid) resize(side int) {
	old := g.slots
	g.setSide(side)
	for _, b := range old {
		for _, e := range b {
			pl := &g.where[e.id]
			nb := &g.slots[g.slotOf(pl.key)]
			pl.idx = len(*nb)
			*nb = append(*nb, e)
		}
	}
}

// grow widens the occupied-cell bounds to include k.
func (g *Grid) grow(k cellKey) {
	if !g.hasBounds {
		g.minC, g.maxC = k, k
		g.hasBounds = true
		return
	}
	g.minC.cx = min(g.minC.cx, k.cx)
	g.minC.cy = min(g.minC.cy, k.cy)
	g.maxC.cx = max(g.maxC.cx, k.cx)
	g.maxC.cy = max(g.maxC.cy, k.cy)
}

// Len implements Index.
func (g *Grid) Len() int { return g.n }

// axis returns the slots a query spanning cell coordinates [lo, hi] on
// one axis visits: count consecutive slots from first, wrapping at the
// table side, never more than the side, so no slot is visited twice.
func (g *Grid) axis(lo, hi int) (first, count int) {
	if hi < lo {
		return 0, 0
	}
	if hi-lo >= g.side-1 {
		return 0, g.side
	}
	return lo & (g.side - 1), hi - lo + 1
}

// InRange implements Index.
func (g *Grid) InRange(p geom.Point, r float64) []int {
	return g.AppendInRange(nil, p, r)
}

// AppendInRange implements Index. It visits the cells of the query
// disk's bounding box, clamped to the occupied-cell bounds.
func (g *Grid) AppendInRange(dst []int, p geom.Point, r float64) []int {
	if r < 0 || !g.hasBounds {
		return dst
	}
	r2 := r * r
	lo := g.keyOf(geom.Pt(p.X-r, p.Y-r))
	hi := g.keyOf(geom.Pt(p.X+r, p.Y+r))
	x0, nx := g.axis(max(lo.cx, g.minC.cx), min(hi.cx, g.maxC.cx))
	y0, ny := g.axis(max(lo.cy, g.minC.cy), min(hi.cy, g.maxC.cy))
	mask := g.side - 1
	start := len(dst)
	for j := 0; j < ny; j++ {
		row := ((y0 + j) & mask) * g.side
		for i := 0; i < nx; i++ {
			for _, e := range g.slots[row+(x0+i)&mask] {
				if e.pos.Dist2(p) <= r2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// Brute is the exhaustive-scan Index: every query walks every indexed
// point. It is the reference implementation the grid is differentially
// tested against, and remains a sensible choice for tiny point sets where
// bucketing overhead exceeds the scan.
type Brute struct {
	ids []int // ascending, so query results need no sort
	pos map[int]geom.Point
}

var _ Index = (*Brute)(nil)

// NewBrute returns an empty brute-force index.
func NewBrute() *Brute {
	return &Brute{pos: make(map[int]geom.Point)}
}

// Insert implements Index.
func (b *Brute) Insert(id int, p geom.Point) {
	if _, ok := b.pos[id]; !ok {
		at := sort.SearchInts(b.ids, id)
		b.ids = append(b.ids, 0)
		copy(b.ids[at+1:], b.ids[at:])
		b.ids[at] = id
	}
	b.pos[id] = p
}

// Move implements Index.
func (b *Brute) Move(id int, p geom.Point) { b.Insert(id, p) }

// Remove implements Index.
func (b *Brute) Remove(id int) {
	if _, ok := b.pos[id]; !ok {
		return
	}
	delete(b.pos, id)
	at := sort.SearchInts(b.ids, id)
	b.ids = append(b.ids[:at], b.ids[at+1:]...)
}

// Len implements Index.
func (b *Brute) Len() int { return len(b.ids) }

// InRange implements Index.
func (b *Brute) InRange(p geom.Point, r float64) []int {
	return b.AppendInRange(nil, p, r)
}

// AppendInRange implements Index.
func (b *Brute) AppendInRange(dst []int, p geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	for _, id := range b.ids {
		if b.pos[id].Dist2(p) <= r2 {
			dst = append(dst, id)
		}
	}
	return dst
}
