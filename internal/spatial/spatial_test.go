package spatial

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

// queryBoth runs the same query on both indexes and fails the test on any
// disagreement — the package's central differential property.
func queryBoth(t *testing.T, g, b Index, p geom.Point, r float64) []int {
	t.Helper()
	got := g.InRange(p, r)
	want := b.InRange(p, r)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("InRange(%v, %v): grid %v, brute %v", p, r, got, want)
	}
	return got
}

func newPair(t *testing.T, cell float64) (Index, Index) {
	t.Helper()
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	return g, NewBrute()
}

// TestKindValidate pins the kinds New accepts: the empty kind (a grid),
// grid and brute; anything else is an error.
func TestKindValidate(t *testing.T) {
	for _, k := range []Kind{"", KindGrid, KindBrute} {
		if _, err := New(k, 1); err != nil {
			t.Errorf("New(%q) = %v", k, err)
		}
	}
	if _, err := New("quadtree", 1); err == nil {
		t.Error("New accepted an unknown kind")
	}
}

func TestNewGridRejectsBadCellSize(t *testing.T) {
	for _, c := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewGrid(c); err == nil {
			t.Errorf("NewGrid(%v) accepted", c)
		}
	}
}

// TestPropertyRandomTopologies is the headline equivalence property:
// on randomized topologies, every grid query agrees with the brute-force
// reference — including radii far above and below the cell size, queries
// from empty regions, and negative coordinates.
func TestPropertyRandomTopologies(t *testing.T) {
	src := stats.NewSource(7)
	for trial := 0; trial < 30; trial++ {
		cell := src.Uniform(10, 400)
		g, b := newPair(t, cell)
		n := 2 + src.Intn(150)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Spread across negative and positive coordinates.
			pts[i] = geom.Pt(src.Uniform(-800, 800), src.Uniform(-800, 800))
			g.Insert(i, pts[i])
			b.Insert(i, pts[i])
		}
		if g.Len() != n || b.Len() != n {
			t.Fatalf("Len: grid %d, brute %d, want %d", g.Len(), b.Len(), n)
		}
		radii := []float64{0, cell / 3, cell, 2.5 * cell, 5000}
		for q := 0; q < 20; q++ {
			p := geom.Pt(src.Uniform(-900, 900), src.Uniform(-900, 900))
			if q%3 == 0 {
				p = pts[src.Intn(n)] // query from an occupied position
			}
			for _, r := range radii {
				queryBoth(t, g, b, p, r)
			}
		}
	}
}

// mutationRegime shapes one randomized mutation sequence: how many IDs
// it cycles through, where fresh points land, and which radii queries use.
type mutationRegime struct {
	name  string
	ids   int
	steps int
	point func(src *stats.Source) geom.Point
	radii []float64
}

// TestPropertyMutationSequence applies long randomized sequences of
// insert/move/remove operations to both indexes, interleaved with
// queries. Moves are drawn small so they frequently cross cell edges
// without leaving the neighborhood — the regime the simulator's
// per-packet node movement produces. The regimes push the dense table
// off its comfortable path: negative coordinates, points far outside the
// first extent, cells that alias onto one table slot, huge radii, and
// enough IDs to force table resizes. Throughout, a fixed probe's
// RegionStamp must never decrease, must strictly grow across a resize,
// and an unchanged stamp must mean an unchanged answer.
func TestPropertyMutationSequence(t *testing.T) {
	const cell = 100.0
	uniform := func(lo, hi float64) func(*stats.Source) geom.Point {
		return func(src *stats.Source) geom.Point {
			return geom.Pt(src.Uniform(lo, hi), src.Uniform(lo, hi))
		}
	}
	far := []float64{1e6, -1e6, 1e12, -1e12, 1e300, -1e300}
	aliasSpan := minTableSide * cell // cells this far apart share a slot
	regimes := []mutationRegime{
		{name: "local", ids: 60, steps: 3000, point: uniform(-500, 500), radii: []float64{cell, cell / 4}},
		{name: "negative", ids: 60, steps: 3000, point: uniform(-5000, -1000), radii: []float64{cell, 3 * cell}},
		{name: "far", ids: 60, steps: 3000, radii: []float64{cell, 1e7, math.Inf(1)},
			point: func(src *stats.Source) geom.Point {
				if src.Intn(5) == 0 {
					return geom.Pt(far[src.Intn(len(far))], far[src.Intn(len(far))])
				}
				return geom.Pt(src.Uniform(-500, 500), src.Uniform(-500, 500))
			}},
		{name: "aliasing", ids: 60, steps: 3000, radii: []float64{cell, cell / 2, 2 * cell},
			point: func(src *stats.Source) geom.Point {
				return geom.Pt(float64(src.Intn(7)-3)*aliasSpan+src.Uniform(0, 2*cell),
					float64(src.Intn(7)-3)*aliasSpan+src.Uniform(0, 2*cell))
			}},
		{name: "huge-radii", ids: 60, steps: 3000, point: uniform(-2000, 2000),
			radii: []float64{1e9, 1e200, math.MaxFloat64, math.Inf(1)}},
		{name: "resize", ids: 1500, steps: 8000, point: uniform(-3000, 3000), radii: []float64{cell, 2.5 * cell}},
	}
	for i, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) { runMutationRegime(t, stats.NewSource(int64(11+i)), cell, rg) })
	}
}

func runMutationRegime(t *testing.T, src *stats.Source, cell float64, rg mutationRegime) {
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBrute()
	pos := make(map[int]geom.Point)
	probe := rg.point(src)
	lastStamp, lastIDs, side := g.RegionStamp(probe, cell), g.InRange(probe, cell), g.side
	resizes := 0
	for step := 0; step < rg.steps; step++ {
		id := src.Intn(rg.ids)
		switch src.Intn(4) {
		case 0: // insert (or relocate) somewhere fresh
			p := rg.point(src)
			g.Insert(id, p)
			b.Insert(id, p)
			pos[id] = p
		case 1: // small move, often across a cell boundary
			p, ok := pos[id]
			if !ok {
				continue
			}
			p = geom.Pt(p.X+src.Uniform(-15, 15), p.Y+src.Uniform(-15, 15))
			g.Move(id, p)
			b.Move(id, p)
			pos[id] = p
		case 2: // remove, rarely, so the resize regime fills up
			if rg.ids > 100 && src.Intn(8) != 0 {
				continue
			}
			g.Remove(id)
			b.Remove(id)
			delete(pos, id)
		default: // query around a random live point
			if len(b.ids) == 0 {
				continue
			}
			p := pos[b.ids[src.Intn(len(b.ids))]]
			for _, r := range rg.radii {
				queryBoth(t, g, b, p, r)
			}
		}
		if g.Len() != b.Len() || g.Len() != len(pos) {
			t.Fatalf("step %d: Len grid %d, brute %d, want %d", step, g.Len(), b.Len(), len(pos))
		}
		stamp, ids := g.RegionStamp(probe, cell), queryBoth(t, g, b, probe, cell)
		switch {
		case stamp < lastStamp:
			t.Fatalf("step %d: stamp went backwards: %d -> %d", step, lastStamp, stamp)
		case g.side != side && stamp <= lastStamp:
			t.Fatalf("step %d: resize %d -> %d did not advance the stamp (%d)", step, side, g.side, stamp)
		case stamp == lastStamp && !reflect.DeepEqual(ids, lastIDs):
			t.Fatalf("step %d: stamp unchanged but result changed: %v -> %v", step, lastIDs, ids)
		}
		if g.side != side {
			resizes++
		}
		lastStamp, lastIDs, side = stamp, ids, g.side
	}
	if rg.name == "resize" && resizes == 0 {
		t.Fatal("resize regime never resized the table")
	}
}

// TestGridMemoryBound guards the dense table against hostile coordinates:
// points scattered over the whole float range must cost memory in
// proportion to their number, never to the area they span, and queries
// over them must stay exact and bounded.
func TestGridMemoryBound(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	g, err := NewGrid(200)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBrute()
	for i, p := range []geom.Point{{X: 0, Y: 0}, {X: 1e12, Y: 1e12}, {X: -1e300, Y: 1e300}} {
		g.Insert(i, p)
		b.Insert(i, p)
	}
	for _, r := range []float64{0, 200, 2e12, math.MaxFloat64, math.Inf(1)} {
		queryBoth(t, g, b, geom.Pt(0, 0), r)
		queryBoth(t, g, b, geom.Pt(1e12, 1e12), r)
	}
	if grew := heap() - before; grew > 64<<10 {
		t.Errorf("3 far-apart points grew the heap by %d bytes", grew)
	}
	runtime.KeepAlive(g)

	// n points spread geometrically from 1 m to 1e300 m in every
	// direction: heap growth stays within a constant per point.
	const n = 4096
	before = heap()
	g, _ = NewGrid(200)
	for i := 0; i < n; i++ {
		mag := math.Pow(10, float64(i%300))
		sx, sy := float64(1-2*(i&1)), float64(1-(i&2))
		g.Insert(i, geom.Pt(sx*mag, sy*mag*1.5))
	}
	if got := g.InRange(geom.Pt(0, 0), math.Inf(1)); len(got) != n {
		t.Fatalf("infinite-radius query found %d of %d points", len(got), n)
	}
	if grew, limit := heap()-before, int64(512*n+64<<10); grew > limit {
		t.Errorf("%d far-flung points grew the heap by %d bytes, limit %d", n, grew, limit)
	}
	runtime.KeepAlive(g)
}

// TestBoundaryInclusion pins the contract's edge cases: a point at
// exactly distance r is included, just beyond is not, and points sitting
// exactly on cell edges and corners are found from every side.
func TestBoundaryInclusion(t *testing.T) {
	const cell = 200.0
	g, b := newPair(t, cell)
	for i, p := range []geom.Point{
		{X: 0, Y: 0},      // cell corner
		{X: 200, Y: 0},    // cell edge
		{X: 200, Y: 200},  // corner shared by four cells
		{X: 400, Y: 100},  // edge
		{X: -200, Y: 0},   // negative-side boundary
		{X: 150, Y: -200}, // negative-side edge
	} {
		g.Insert(i, p)
		b.Insert(i, p)
	}
	// Exact-distance inclusion: a neighbor at exactly r.
	g.Insert(100, geom.Pt(200+cell, 0))
	b.Insert(100, geom.Pt(200+cell, 0))
	got := queryBoth(t, g, b, geom.Pt(200, 0), cell)
	found := false
	for _, id := range got {
		if id == 100 {
			found = true
		}
	}
	if !found {
		t.Errorf("point at exactly r not returned: %v", got)
	}
	// Just beyond r is excluded.
	got = queryBoth(t, g, b, geom.Pt(200, 0), cell-1e-9)
	for _, id := range got {
		if id == 100 {
			t.Errorf("point beyond r returned: %v", got)
		}
	}
	// Queries centered on every boundary point see consistent answers at
	// assorted radii (the loop body asserts grid == brute).
	for _, r := range []float64{0, 1, 199.999999, 200, 200.000001, 300} {
		for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 200}, {X: -200, Y: 0}} {
			queryBoth(t, g, b, p, r)
		}
	}
}

// TestMoveAcrossCellBoundary walks one point across a vertical cell edge
// in sub-epsilon steps and asserts the grid answer flips exactly when the
// brute-force answer flips.
func TestMoveAcrossCellBoundary(t *testing.T) {
	const cell = 200.0
	g, b := newPair(t, cell)
	// Observer sits near the boundary; the walker crosses x = 200.
	g.Insert(0, geom.Pt(350, 50))
	b.Insert(0, geom.Pt(350, 50))
	for i, x := 1, 199.0; x <= 201.0; i, x = i+1, x+0.125 {
		p := geom.Pt(x, 50)
		g.Move(1, p)
		b.Move(1, p)
		queryBoth(t, g, b, geom.Pt(350, 50), 150)  // includes the walker near the end
		queryBoth(t, g, b, p, cell)                // walker's own neighborhood
		queryBoth(t, g, b, geom.Pt(199.5, 50), 10) // straddles the edge
	}
}

// TestRebucketOnlyOnCellCrossing pins the incremental-maintenance
// invariant the ambient-mobility layer relies on: moves within a cell
// update the bucketed position in place, and only a cell-boundary
// crossing pays the unbucket/rebucket map work.
func TestRebucketOnlyOnCellCrossing(t *testing.T) {
	const cell = 200.0
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(0, geom.Pt(50, 50))
	if got := g.Rebuckets(); got != 0 {
		t.Fatalf("fresh insert counted as rebucket: %d", got)
	}
	// 100 small steps inside cell (0,0): no rebucketing.
	for i := 0; i < 100; i++ {
		g.Move(0, geom.Pt(50+float64(i), 50))
	}
	if got := g.Rebuckets(); got != 0 {
		t.Fatalf("within-cell moves rebucketed %d times, want 0", got)
	}
	// Cross into cell (1,0): exactly one rebucket.
	g.Move(0, geom.Pt(250, 50))
	if got := g.Rebuckets(); got != 1 {
		t.Fatalf("cell crossing rebucketed %d times, want 1", got)
	}
	// Move back within the new cell: still one.
	g.Move(0, geom.Pt(399, 50))
	if got := g.Rebuckets(); got != 1 {
		t.Fatalf("within-cell move after crossing rebucketed: %d", got)
	}
	// Removal and re-insert are not rebuckets either.
	g.Remove(0)
	g.Insert(0, geom.Pt(50, 50))
	if got := g.Rebuckets(); got != 1 {
		t.Fatalf("remove+insert counted as rebucket: %d", got)
	}
}

func TestRemoveAbsentAndEmptyQueries(t *testing.T) {
	g, b := newPair(t, 50)
	g.Remove(9)
	b.Remove(9)
	if got := g.InRange(geom.Pt(0, 0), 100); len(got) != 0 {
		t.Errorf("empty grid InRange = %v", got)
	}
	if got := b.InRange(geom.Pt(0, 0), 100); len(got) != 0 {
		t.Errorf("empty brute InRange = %v", got)
	}
	g.Insert(1, geom.Pt(5, 5))
	b.Insert(1, geom.Pt(5, 5))
	queryBoth(t, g, b, geom.Pt(5, 5), -1) // negative radius: empty
	queryBoth(t, g, b, geom.Pt(5, 5), 0)  // zero radius: coincident only
}

// TestFromPoints checks the parallel-slice constructor used by the
// simulator layers.
func TestFromPoints(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 1000, Y: 1000}}
	for _, kind := range []Kind{KindGrid, KindBrute, ""} {
		idx, err := FromPoints(kind, 200, pts)
		if err != nil {
			t.Fatalf("FromPoints(%q): %v", kind, err)
		}
		if idx.Len() != len(pts) {
			t.Fatalf("FromPoints(%q): Len = %d", kind, idx.Len())
		}
		got := idx.InRange(geom.Pt(0, 0), 50)
		if want := []int{0, 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("FromPoints(%q): InRange = %v, want %v", kind, got, want)
		}
	}
}

// TestAppendInRangeReusesBuffer verifies the allocation-free append
// contract: with sufficient capacity the same backing array is reused.
func TestAppendInRangeReusesBuffer(t *testing.T) {
	g, _ := newPair(t, 100)
	for i := 0; i < 8; i++ {
		g.Insert(i, geom.Pt(float64(i), 0))
	}
	buf := make([]int, 0, 16)
	out := g.AppendInRange(buf, geom.Pt(0, 0), 1000)
	if len(out) != 8 {
		t.Fatalf("got %d ids", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("AppendInRange reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.AppendInRange(buf[:0], geom.Pt(0, 0), 1000)
	})
	if allocs != 0 {
		t.Errorf("AppendInRange allocated %.1f times per query", allocs)
	}
}

// TestRegionStampInvalidation pins the RegionStamp caching contract: the
// stamp is unchanged while nothing inside the queried cells changes, and
// strictly increases on any insert, removal, or position update there —
// including in-place same-cell updates, which do not bump Rebuckets but
// must still invalidate cached query results.
func TestRegionStampInvalidation(t *testing.T) {
	g, err := NewGrid(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g.Insert(i, geom.Pt(float64(i)*30, 50))
	}
	q := geom.Pt(100, 50)
	base := g.RegionStamp(q, 100)

	// Unrelated change far outside the queried cells: stamp unchanged.
	g.Insert(99, geom.Pt(2000, 2000))
	if got := g.RegionStamp(q, 100); got != base {
		t.Fatalf("stamp changed on out-of-region insert: %d -> %d", base, got)
	}
	// Re-query twice with no changes: stable.
	if got := g.RegionStamp(q, 100); got != base {
		t.Fatalf("stamp not stable: %d -> %d", base, got)
	}

	// In-place same-cell move inside the region: no rebucket, but the
	// stamp must advance.
	rb := g.Rebuckets()
	g.Move(3, geom.Pt(91, 51))
	if g.Rebuckets() != rb {
		// sanity: this move must be the in-place kind
	} else if got := g.RegionStamp(q, 100); got <= base {
		t.Fatalf("in-place move did not advance stamp: %d -> %d", base, got)
	}
	base = g.RegionStamp(q, 100)

	// Cross-cell move into the region advances it again.
	g.Move(99, geom.Pt(120, 60))
	if got := g.RegionStamp(q, 100); got <= base {
		t.Fatalf("cross-cell move did not advance stamp: %d -> %d", base, got)
	}
	base = g.RegionStamp(q, 100)

	// Removal inside the region advances it.
	g.Remove(3)
	if got := g.RegionStamp(q, 100); got <= base {
		t.Fatalf("removal did not advance stamp: %d -> %d", base, got)
	}

	// Empty grid and negative radius are stamp zero.
	e, _ := NewGrid(100)
	if e.RegionStamp(q, 100) != 0 {
		t.Fatal("empty grid stamp not zero")
	}
	if g.RegionStamp(q, -1) != 0 {
		t.Fatal("negative radius stamp not zero")
	}
}

// TestRegionStampAgreesWithQuery is the differential form: over a random
// mutation sequence, whenever the stamp of a fixed query is unchanged the
// query result is unchanged too (same ids, same order).
func TestRegionStampAgreesWithQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, err := NewGrid(50)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(200, 200)
	const r = 50
	lastStamp := g.RegionStamp(q, r)
	lastIDs := append([]int(nil), g.InRange(q, r)...)
	for step := 0; step < 4000; step++ {
		id := rng.Intn(40)
		switch rng.Intn(10) {
		case 0:
			g.Remove(id)
		default:
			g.Move(id, geom.Pt(rng.Float64()*400, rng.Float64()*400))
		}
		stamp := g.RegionStamp(q, r)
		ids := g.InRange(q, r)
		if stamp == lastStamp {
			if len(ids) != len(lastIDs) {
				t.Fatalf("step %d: stamp unchanged but result changed: %v -> %v", step, lastIDs, ids)
			}
			for i := range ids {
				if ids[i] != lastIDs[i] {
					t.Fatalf("step %d: stamp unchanged but result changed: %v -> %v", step, lastIDs, ids)
				}
			}
		} else if stamp < lastStamp {
			t.Fatalf("step %d: stamp went backwards: %d -> %d", step, lastStamp, stamp)
		}
		lastStamp, lastIDs = stamp, append(lastIDs[:0], ids...)
	}
}
