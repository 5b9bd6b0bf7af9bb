package hello

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestTableUpdateGet(t *testing.T) {
	tab := &Table{ttl: 10}
	b := Beacon{ID: 3, Position: geom.Pt(5, 5), Residual: 42}
	tab.Update(b, 100)
	e, ok := tab.Get(3, 105)
	if !ok {
		t.Fatal("entry should be present")
	}
	if e.Beacon != b || e.LastSeen != 100 {
		t.Errorf("entry = %+v", e)
	}
	if _, ok := tab.Get(99, 105); ok {
		t.Error("unknown neighbor should be absent")
	}
}

func TestTableRefreshReplaces(t *testing.T) {
	tab := &Table{ttl: 10}
	tab.Update(Beacon{ID: 1, Position: geom.Pt(0, 0), Residual: 50}, 0)
	tab.Update(Beacon{ID: 1, Position: geom.Pt(9, 9), Residual: 40}, 5)
	e, ok := tab.Get(1, 6)
	if !ok {
		t.Fatal("entry missing")
	}
	if !e.Position.Eq(geom.Pt(9, 9)) || e.Residual != 40 || e.LastSeen != 5 {
		t.Errorf("entry not refreshed: %+v", e)
	}
}

func TestTableExpiry(t *testing.T) {
	tab := &Table{ttl: 10}
	tab.Update(Beacon{ID: 1}, 0)
	if _, ok := tab.Get(1, 10); !ok {
		t.Error("entry at exactly ttl should survive")
	}
	if _, ok := tab.Get(1, 10.001); ok {
		t.Error("entry past ttl should expire")
	}
}

func TestTableNoExpiryWhenDisabled(t *testing.T) {
	tab := &Table{ttl: 0}
	tab.Update(Beacon{ID: 1}, 0)
	if _, ok := tab.Get(1, 1e12); !ok {
		t.Error("ttl 0 should disable expiry")
	}
}

// tableModel is the reference neighbor table: a map with the same TTL
// rule as Table.
type tableModel struct {
	ttl     sim.Time
	entries map[NodeID]Entry
}

func (m *tableModel) get(id NodeID, now sim.Time) (Entry, bool) {
	e, ok := m.entries[id]
	if !ok || (m.ttl > 0 && now-e.LastSeen > m.ttl) {
		return Entry{}, false
	}
	return e, true
}

// TestTableMatchesMapModel drives Table and the map reference through
// the same random Update/Get sequence, with expiry on and off, and
// requires identical answers at every step — expired entries included —
// and a strictly ascending ID column parallel to the rows.
func TestTableMatchesMapModel(t *testing.T) {
	for _, ttl := range []sim.Time{0, 3} {
		rng := rand.New(rand.NewSource(int64(ttl) + 1))
		tab := &Table{ttl: ttl}
		model := &tableModel{ttl: ttl, entries: map[NodeID]Entry{}}
		var now sim.Time
		for step := 0; step < 20000; step++ {
			if rng.Intn(4) == 0 {
				now += sim.Time(rng.Intn(3))
			}
			id := rng.Intn(48)
			if rng.Intn(2) == 0 {
				b := Beacon{ID: id, Position: geom.Pt(rng.Float64(), rng.Float64()), Residual: rng.Float64()}
				tab.Update(b, now)
				model.entries[id] = Entry{Beacon: b, LastSeen: now}
				continue
			}
			got, gotOK := tab.Get(id, now)
			want, wantOK := model.get(id, now)
			if got != want || gotOK != wantOK {
				t.Fatalf("ttl %v step %d: Get(%d) = %+v, %v; want %+v, %v", ttl, step, id, got, gotOK, want, wantOK)
			}
		}
		if len(tab.ids) != len(model.entries) || len(tab.rows) != len(tab.ids) {
			t.Fatalf("ttl %v: %d ids, %d rows, %d model entries", ttl, len(tab.ids), len(tab.rows), len(model.entries))
		}
		for i := 1; i < len(tab.ids); i++ {
			if tab.ids[i-1] >= tab.ids[i] {
				t.Fatalf("ttl %v: ID column not strictly ascending: %v", ttl, tab.ids)
			}
		}
	}
}

func TestTableRejectsWideIDs(t *testing.T) {
	tab := &Table{ttl: 0}
	if _, ok := tab.Get(math.MaxInt32+1, 0); ok {
		t.Error("Get of an id past int32 found an entry")
	}
	defer func() {
		if recover() == nil {
			t.Error("Update with an id past int32 did not panic")
		}
	}()
	tab.Update(Beacon{ID: math.MaxInt32 + 1}, 0)
}

// TestTableGrowPresizes pins the seeding contract: a table carved by
// NewTables with room for n entries takes n updates of new neighbors, in
// any order, without allocating.
func TestTableGrowPresizes(t *testing.T) {
	ids := []NodeID{7, 3, 11, 0, 5, 9, 1, 12}
	const runs = 50
	ends := make([]int, runs+1) // AllocsPerRun adds a warm-up run
	for i := range ends {
		ends[i] = (i + 1) * (len(ids) - 1)
	}
	tables := NewTables(0, ends, 1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tab := &tables[next]
		next++
		for _, id := range ids {
			tab.Update(Beacon{ID: id}, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("presized table allocated %.1f times per fill, want 0", allocs)
	}
	if got := tables[0].ids; !reflect.DeepEqual(got, []int32{0, 1, 3, 5, 7, 9, 11, 12}) {
		t.Errorf("ids = %v", got)
	}
}

// TestNewTablesOverflowStaysLocal pushes one carved table past its room
// and checks that its arena neighbors keep their entries: growth
// reallocates the full table alone.
func TestNewTablesOverflowStaysLocal(t *testing.T) {
	tables := NewTables(0, []int{1, 2, 3}, 1)
	for i := range tables {
		for _, id := range []NodeID{10 * i, 10*i + 1} {
			tables[i].Update(Beacon{ID: id, Residual: float64(id)}, 0)
		}
	}
	// Table 1 is full; two arrivals, one sorting first, one last.
	tables[1].Update(Beacon{ID: 0, Residual: -1}, 1)
	tables[1].Update(Beacon{ID: 99, Residual: -1}, 1)
	for i := range tables {
		for _, id := range []NodeID{10 * i, 10*i + 1} {
			e, ok := tables[i].Get(id, 1)
			if !ok || e.Residual != float64(id) || e.LastSeen != 0 {
				t.Errorf("table %d entry %d = %+v, %v after table 1 overflowed", i, id, e, ok)
			}
		}
	}
	if got := tables[1].ids; !reflect.DeepEqual(got, []int32{0, 10, 11, 99}) {
		t.Errorf("overflowed table ids = %v", got)
	}
}

func TestBeaconerPeriodicity(t *testing.T) {
	sched := sim.NewScheduler()
	var times []sim.Time
	b, err := NewBeaconer(sched, 2, func() error {
		times = append(times, sched.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(7); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{0, 2, 4, 6}
	if len(times) != len(want) {
		t.Fatalf("beacon times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("beacon times = %v, want %v", times, want)
		}
	}
}

func TestBeaconerStop(t *testing.T) {
	sched := sim.NewScheduler()
	count := 0
	b, err := NewBeaconer(sched, 1, func() error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	b.Stop()
	if b.Running() {
		t.Error("beaconer should not be running after Stop")
	}
	if err := sched.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if count != 3 { // fired at 0, 1, 2
		t.Errorf("count = %d, want 3", count)
	}
}

func TestBeaconerSendErrorStops(t *testing.T) {
	sched := sim.NewScheduler()
	calls := 0
	wantErr := errors.New("radio dead")
	b, err := NewBeaconer(sched, 1, func() error {
		calls++
		if calls >= 2 {
			return wantErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (stops on error)", calls)
	}
	if b.Running() {
		t.Error("beaconer should stop after send error")
	}
}

func TestBeaconerStartError(t *testing.T) {
	sched := sim.NewScheduler()
	wantErr := errors.New("dead at start")
	b, err := NewBeaconer(sched, 1, func() error { return wantErr })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); !errors.Is(err, wantErr) {
		t.Errorf("Start err = %v, want %v", err, wantErr)
	}
	if b.Running() {
		t.Error("failed Start should leave beaconer stopped")
	}
}

func TestBeaconerDoubleStart(t *testing.T) {
	sched := sim.NewScheduler()
	count := 0
	b, err := NewBeaconer(sched, 1, func() error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil { // no-op
		t.Fatal(err)
	}
	if err := sched.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("double Start duplicated beacons: count = %d", count)
	}
}

func TestNewBeaconerValidation(t *testing.T) {
	sched := sim.NewScheduler()
	if _, err := NewBeaconer(nil, 1, func() error { return nil }); err == nil {
		t.Error("nil scheduler should error")
	}
	if _, err := NewBeaconer(sched, 0, func() error { return nil }); err == nil {
		t.Error("zero interval should error")
	}
	if _, err := NewBeaconer(sched, 1, nil); err == nil {
		t.Error("nil send should error")
	}
}

// benchTable returns a table holding n neighbors with IDs 0, 3, 6, ...,
// the spacing of a typical neighborhood drawn from a larger world.
func benchTable(n int) *Table {
	tab := &Table{ttl: 10}
	for i := 0; i < n; i++ {
		tab.Update(Beacon{ID: 3 * i}, 0)
	}
	return tab
}

// BenchmarkTableUpdate measures the per-beacon refresh of an existing
// neighbor in a 16-entry table, the HELLO receive path.
func BenchmarkTableUpdate(b *testing.B) {
	tab := benchTable(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Update(Beacon{ID: 3 * (i & 15), Residual: float64(i)}, sim.Time(i))
	}
}

// BenchmarkTablesScattered refreshes neighbors across the tables of a
// 100k-node world, 16 neighbors each in one arena, with receivers drawn
// in random order, so every update pays the cache misses of a broadcast
// fan-out in a big world.
func BenchmarkTablesScattered(b *testing.B) {
	const nodes, degree = 100000, 16
	ends := make([]int, nodes)
	for i := range ends {
		ends[i] = (i + 1) * degree
	}
	tables := NewTables(10, ends, 1)
	for i := range tables {
		for k := 1; k <= degree; k++ {
			tables[i].Update(Beacon{ID: (i + 7*k) % nodes}, 0)
		}
	}
	rng := rand.New(rand.NewSource(1))
	const ops = 1 << 16
	recv := make([]int, ops)
	from := make([]NodeID, ops)
	for j := range recv {
		recv[j] = rng.Intn(nodes)
		from[j] = (recv[j] + 7*(1+rng.Intn(degree))) % nodes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (ops - 1)
		tables[recv[j]].Update(Beacon{ID: from[j], Residual: float64(i)}, sim.Time(i))
	}
}

// BenchmarkTableGet measures a neighbor lookup in a 16-entry table, the
// strategies' read of the previous/next hop.
func BenchmarkTableGet(b *testing.B) {
	tab := benchTable(16)
	b.ReportAllocs()
	var hits int
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Get(3*(i&15), 1); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("hits = %d, want %d", hits, b.N)
	}
}
