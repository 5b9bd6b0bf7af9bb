package spatial

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

// benchGrid returns a grid over n points placed uniformly at ~15 expected
// neighbors within one cell radius — the density of the 100k-node world
// benchmark — plus the points themselves.
func benchGrid(b *testing.B, n int) (*Grid, []geom.Point) {
	b.Helper()
	const cell = 200.0
	side := math.Sqrt(float64(n) * math.Pi * cell * cell / 15)
	src := stats.NewSource(5)
	pts := make([]geom.Point, n)
	g, err := NewGrid(cell)
	if err != nil {
		b.Fatal(err)
	}
	for i := range pts {
		pts[i] = geom.Pt(src.Uniform(0, side), src.Uniform(0, side))
		g.Insert(i, pts[i])
	}
	return g, pts
}

// BenchmarkGridMove measures one position update of a point drifting
// about 1 m per step, the ambient-motion write path: mostly in-place
// same-cell updates with an occasional cell crossing.
func BenchmarkGridMove(b *testing.B) {
	const n = 100000
	g, pts := benchGrid(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % n
		step := float64(1 - 2*(i/n&1)) // drift out, then back
		pts[id].X += step
		g.Move(id, pts[id])
	}
}

// BenchmarkGridAppendInRange measures one radio-range neighbor query
// around a node, the broadcast fan-out read path.
func BenchmarkGridAppendInRange(b *testing.B) {
	const n = 100000
	g, pts := benchGrid(b, n)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.AppendInRange(buf[:0], pts[(i*7919)%n], g.CellSize())
	}
	if len(buf) == 0 {
		b.Fatal("query found no neighbors")
	}
}
