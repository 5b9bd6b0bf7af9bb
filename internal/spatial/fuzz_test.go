package spatial

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// fuzzFar are the coordinates a fuzzed point can jump to: far outside
// any extent the other points occupy, on both sides.
var fuzzFar = [...]float64{1e6, -1e6, 1e12, -1e12, 1e300, -1e300}

// fuzzReader decodes operations from fuzzer bytes, reading zeros once
// the input runs out.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	c := r.data[0]
	r.data = r.data[1:]
	return c
}

// coord is a half-metre grid coordinate in [-16384, 16384), or, when the
// low byte's top bits say so, one of the far coordinates.
func (r *fuzzReader) coord() float64 {
	hi, lo := r.byte(), r.byte()
	if lo >= 0xf8 {
		return fuzzFar[int(hi)%len(fuzzFar)]
	}
	return float64(int16(uint16(hi)<<8|uint16(lo))) / 2
}

func (r *fuzzReader) point() geom.Point { return geom.Pt(r.coord(), r.coord()) }

// radius is a multiple of cell/16 up to ~15 cells, or a huge radius.
func (r *fuzzReader) radius(cell float64) float64 {
	switch c := r.byte(); c {
	case 0xff:
		return math.Inf(1)
	case 0xfe:
		return 1e300
	case 0xfd:
		return 1e13
	default:
		return float64(c) * cell / 16
	}
}

// FuzzGridOps drives Grid and Brute through the same byte-decoded
// Insert/Move/Remove/query sequence and requires identical answers after
// every operation: equal Len, equal results for the decoded query and
// for three probes (an infinite-radius one covering every point, one
// cell around the origin, and one around the touched point).
func FuzzGridOps(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 0, 0, 3, 0, 1, 0, 0, 0, 8, 0})
	f.Add([]byte{9, 0, 2, 0x7f, 0xf0, 0x80, 0x10, 4, 3, 0x01, 0xf8, 0x02, 0xf9, 3, 0, 0, 0, 0, 0xff})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 2, 0, 3, 2, 0, 0, 0, 0, 0x40, 1, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		cell := 1 + float64(r.byte())
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBrute()
		probe := geom.Pt(0, 0)
		for ops := 0; len(r.data) > 0 && ops < 512; ops++ {
			op, id := r.byte(), int(r.byte()%32)
			var p geom.Point
			switch op % 4 {
			case 0:
				p = r.point()
				g.Insert(id, p)
				b.Insert(id, p)
			case 1:
				p = r.point()
				g.Move(id, p)
				b.Move(id, p)
			case 2:
				g.Remove(id)
				b.Remove(id)
			default:
				p = r.point()
				rad := r.radius(cell)
				if got, want := g.InRange(p, rad), b.InRange(p, rad); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: InRange(%v, %v): grid %v, brute %v", ops, p, rad, got, want)
				}
			}
			if g.Len() != b.Len() {
				t.Fatalf("op %d: Len grid %d, brute %d", ops, g.Len(), b.Len())
			}
			for _, q := range []struct {
				p geom.Point
				r float64
			}{{probe, math.Inf(1)}, {probe, cell}, {p, cell}} {
				if got, want := g.InRange(q.p, q.r), b.InRange(q.p, q.r); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: InRange(%v, %v): grid %v, brute %v", ops, q.p, q.r, got, want)
				}
			}
		}
	})
}
