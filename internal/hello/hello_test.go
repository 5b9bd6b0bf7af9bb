package hello

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestTableUpdateGet(t *testing.T) {
	tab := NewTable(10)
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
	tab := NewTable(10)
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
	tab := NewTable(10)
	tab.Update(Beacon{ID: 1}, 0)
	if _, ok := tab.Get(1, 10); !ok {
		t.Error("entry at exactly ttl should survive")
	}
	if _, ok := tab.Get(1, 10.001); ok {
		t.Error("entry past ttl should expire")
	}
}

func TestTableNoExpiryWhenDisabled(t *testing.T) {
	tab := NewTable(0)
	tab.Update(Beacon{ID: 1}, 0)
	if _, ok := tab.Get(1, 1e12); !ok {
		t.Error("ttl 0 should disable expiry")
	}
}

func TestTableIDsSortedAndPurged(t *testing.T) {
	tab := NewTable(10)
	tab.Update(Beacon{ID: 5}, 0)
	tab.Update(Beacon{ID: 2}, 8)
	tab.Update(Beacon{ID: 9}, 8)
	ids := tab.IDs(15) // entry 5 (seen at 0) has expired
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 9 {
		t.Errorf("IDs = %v, want [2 9]", ids)
	}
	if tab.Len(15) != 2 {
		t.Errorf("Len = %d, want 2", tab.Len(15))
	}
}

func TestTableSnapshot(t *testing.T) {
	tab := NewTable(0)
	tab.Update(Beacon{ID: 2, Residual: 20}, 0)
	tab.Update(Beacon{ID: 1, Residual: 10}, 0)
	snap := tab.Snapshot(1)
	if len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 2 {
		t.Errorf("Snapshot = %+v", snap)
	}
}

func TestTableRemove(t *testing.T) {
	tab := NewTable(0)
	tab.Update(Beacon{ID: 1}, 0)
	tab.Remove(1)
	if _, ok := tab.Get(1, 0); ok {
		t.Error("removed entry still present")
	}
}

// tableModel is the reference neighbor table: a map, purged and sorted
// on read, with the same TTL rule as Table.
type tableModel struct {
	ttl     sim.Time
	entries map[NodeID]Entry
}

func (m *tableModel) live(e Entry, now sim.Time) bool {
	return m.ttl <= 0 || now-e.LastSeen <= m.ttl
}

func (m *tableModel) snapshot(now sim.Time) []Entry {
	out := []Entry{}
	for id, e := range m.entries {
		if !m.live(e, now) {
			delete(m.entries, id)
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestTableMatchesMapModel drives Table and the map reference through
// the same random Update/Get/Remove/Len/IDs/Snapshot sequence, with
// expiry on and off, and requires identical answers at every step.
func TestTableMatchesMapModel(t *testing.T) {
	for _, ttl := range []sim.Time{0, 3} {
		rng := rand.New(rand.NewSource(int64(ttl) + 1))
		tab := NewTable(ttl)
		model := &tableModel{ttl: ttl, entries: map[NodeID]Entry{}}
		var now sim.Time
		for step := 0; step < 20000; step++ {
			if rng.Intn(4) == 0 {
				now += sim.Time(rng.Intn(3))
			}
			id := rng.Intn(48)
			switch op := rng.Intn(10); {
			case op < 4:
				b := Beacon{ID: id, Position: geom.Pt(rng.Float64(), rng.Float64()), Residual: rng.Float64()}
				tab.Update(b, now)
				model.entries[id] = Entry{Beacon: b, LastSeen: now}
			case op < 6:
				got, gotOK := tab.Get(id, now)
				want, wantOK := model.entries[id]
				if wantOK && !model.live(want, now) {
					want, wantOK = Entry{}, false
				}
				if got != want || gotOK != wantOK {
					t.Fatalf("ttl %v step %d: Get(%d) = %+v, %v; want %+v, %v", ttl, step, id, got, gotOK, want, wantOK)
				}
			case op < 7:
				tab.Remove(id)
				delete(model.entries, id)
			case op < 8:
				if got, want := tab.Len(now), len(model.snapshot(now)); got != want {
					t.Fatalf("ttl %v step %d: Len = %d, want %d", ttl, step, got, want)
				}
			case op < 9:
				want := []NodeID{}
				for _, e := range model.snapshot(now) {
					want = append(want, e.ID)
				}
				if got := tab.IDs(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("ttl %v step %d: IDs = %v, want %v", ttl, step, got, want)
				}
			default:
				if got, want := tab.Snapshot(now), model.snapshot(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("ttl %v step %d: Snapshot = %+v, want %+v", ttl, step, got, want)
				}
			}
		}
	}
}

// TestTableGrowPresizes pins the seeding contract: after Grow(n), n
// updates of new neighbors, in any order, allocate nothing.
func TestTableGrowPresizes(t *testing.T) {
	ids := []NodeID{7, 3, 11, 0, 5, 9, 1, 12}
	const runs = 50
	tables := make([]Table, runs+1) // AllocsPerRun adds a warm-up run
	for i := range tables {
		tables[i].Grow(len(ids))
	}
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
	if got := tables[0].IDs(0); !reflect.DeepEqual(got, []NodeID{0, 1, 3, 5, 7, 9, 11, 12}) {
		t.Errorf("IDs = %v", got)
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
	tab := NewTable(10)
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
