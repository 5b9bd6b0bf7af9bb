// Package hello implements the neighbor-discovery protocol of paper §2:
// each node periodically broadcasts a HELLO beacon carrying its identity,
// current location, and residual energy; receivers maintain a neighbor
// table from which mobility strategies read the previous/next node state
// they need. Entries expire if not refreshed, so departed or dead
// neighbors age out.
package hello

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/sim"
)

// NodeID identifies a node.
type NodeID = int

// Beacon is the HELLO message payload. The paper embeds location and
// residual energy in the periodic HELLO messages of the underlying routing
// protocol (AODV-style).
type Beacon struct {
	ID       NodeID
	Position geom.Point
	Residual float64
}

// Entry is a neighbor-table row: the last known state of a neighbor.
type Entry struct {
	Beacon
	LastSeen sim.Time
}

// Table is a node's neighbor table. The zero value is an empty table
// whose entries never expire; NewTables sets an expiry.
//
// Neighbor IDs live in their own ascending int32 column, apart from the
// 32-byte rows of advertised state: a node hears a few dozen neighbors at
// most, so the binary search of a beacon reception reads a cache line or
// two of IDs and the refresh writes one row. IDs must fit in an int32.
type Table struct {
	ttl  sim.Time
	ids  []int32
	rows []row
}

// row is the per-neighbor state of a Table, parallel to its ID column.
type row struct {
	pos      geom.Point
	residual float64
	lastSeen sim.Time
}

// NewTables returns len(ends) tables whose entries expire ttl seconds
// after their last refresh (a non-positive ttl disables expiry), with
// storage carved from one arena. Table i has room for spare entries more
// than its run ends[i]-ends[i-1] (ends[0] for table 0), the layout of a
// flat buffer of per-node range query results. A table that outgrows its
// room moves to storage of its own; it never writes into its neighbor's.
func NewTables(ttl sim.Time, ends []int, spare int) []Table {
	tables := make([]Table, len(ends))
	if len(ends) == 0 {
		return tables
	}
	total := ends[len(ends)-1] + spare*len(ends)
	ids := make([]int32, total)
	rows := make([]row, total)
	prev, lo := 0, 0
	for i, end := range ends {
		hi := lo + end - prev + spare
		tables[i] = Table{ttl: ttl, ids: ids[lo:lo:hi], rows: rows[lo:lo:hi]}
		prev, lo = end, hi
	}
	return tables
}

// search returns the position of id in the ID column, or where it would
// be inserted, and whether it is present. It is spelled out because every
// beacon reception lands here, and slices.BinarySearchFunc's comparator
// calls make it about 4× slower (BenchmarkTableUpdate).
func (t *Table) search(id int32) (int, bool) {
	ids := t.ids
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ids) && ids[lo] == id
}

// Update records a received beacon at the given time. It panics if the
// beacon's ID does not fit in an int32.
func (t *Table) Update(b Beacon, now sim.Time) {
	id := int32(b.ID)
	if int(id) != b.ID {
		panic(fmt.Sprintf("hello: neighbor id %d out of int32 range", b.ID))
	}
	r := row{pos: b.Position, residual: b.Residual, lastSeen: now}
	i, ok := t.search(id)
	if ok {
		t.rows[i] = r
		return
	}
	t.ids = slices.Insert(t.ids, i, id)
	t.rows = slices.Insert(t.rows, i, r)
}

// Get returns the freshest entry for the given neighbor, if present and
// not expired as of now.
func (t *Table) Get(id NodeID, now sim.Time) (Entry, bool) {
	if int(int32(id)) != id {
		return Entry{}, false
	}
	i, ok := t.search(int32(id))
	if !ok {
		return Entry{}, false
	}
	r := t.rows[i]
	if t.ttl > 0 && now-r.lastSeen > t.ttl {
		return Entry{}, false
	}
	return Entry{Beacon: Beacon{ID: id, Position: r.pos, Residual: r.residual}, LastSeen: r.lastSeen}, true
}

// SendFunc broadcasts the node's current beacon. It is supplied by the
// network layer; returning an error stops the beaconer (the node died).
type SendFunc func() error

// Beaconer periodically invokes a SendFunc on the simulation scheduler.
type Beaconer struct {
	sched    *sim.Scheduler
	interval sim.Time
	send     SendFunc
	running  bool
	handle   sim.Handle
}

// tickFn is the shared re-arm callback: every Beaconer schedules this one
// long-lived function with itself as the argument, so the per-interval
// tick allocates nothing (see sim.AfterArg).
func tickFn(arg any) {
	// Errors inside scheduled ticks stop the beaconer silently; the
	// node-level death handling owns the failure.
	_ = arg.(*Beaconer).tick()
}

// NewBeaconer creates a beaconer firing every interval seconds.
func NewBeaconer(sched *sim.Scheduler, interval sim.Time, send SendFunc) (*Beaconer, error) {
	if sched == nil {
		return nil, errors.New("hello: nil scheduler")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("hello: non-positive beacon interval %v", interval)
	}
	if send == nil {
		return nil, errors.New("hello: nil send function")
	}
	return &Beaconer{sched: sched, interval: interval, send: send}, nil
}

// Start sends the first beacon immediately and schedules the rest.
// Starting an already-running beaconer is a no-op.
func (b *Beaconer) Start() error {
	if b.running {
		return nil
	}
	b.running = true
	return b.tick()
}

// Stop cancels future beacons.
func (b *Beaconer) Stop() {
	b.running = false
	b.handle.Cancel()
}

// Running reports whether the beaconer is active.
func (b *Beaconer) Running() bool { return b.running }

func (b *Beaconer) tick() error {
	if !b.running {
		return nil
	}
	if err := b.send(); err != nil {
		b.running = false
		return fmt.Errorf("hello: beacon send: %w", err)
	}
	h, err := b.sched.AfterArg(b.interval, tickFn, b)
	if err != nil {
		b.running = false
		return fmt.Errorf("hello: scheduling beacon: %w", err)
	}
	b.handle = h
	return nil
}
