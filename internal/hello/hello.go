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
// whose entries never expire; NewTable sets an expiry.
//
// Entries live in one slice kept in ascending ID order: a node hears a
// few dozen neighbors at most, so a binary search over a contiguous slice
// beats hashing, and IDs and Snapshot come out sorted for free.
type Table struct {
	ttl     sim.Time
	entries []Entry
}

// NewTable creates a neighbor table whose entries expire ttl seconds after
// their last refresh. A non-positive ttl disables expiry.
func NewTable(ttl sim.Time) *Table {
	return &Table{ttl: ttl}
}

// Grow ensures room for n more entries without reallocating, like
// slices.Grow. A world seeding tables from a range query knows each
// node's neighbor count up front and sizes the table once.
func (t *Table) Grow(n int) {
	t.entries = slices.Grow(t.entries, n)
}

// search returns the position of id in the entries, or where it would be
// inserted, and whether it is present. It is spelled out because every
// beacon reception lands here, and slices.BinarySearchFunc's comparator
// calls make it about 4× slower (BenchmarkTableUpdate).
func (t *Table) search(id NodeID) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].ID == id
}

// Update records a received beacon at the given time.
func (t *Table) Update(b Beacon, now sim.Time) {
	e := Entry{Beacon: b, LastSeen: now}
	i, ok := t.search(b.ID)
	if ok {
		t.entries[i] = e
		return
	}
	t.entries = slices.Insert(t.entries, i, e)
}

// Get returns the freshest entry for the given neighbor, if present and
// not expired as of now.
func (t *Table) Get(id NodeID, now sim.Time) (Entry, bool) {
	i, ok := t.search(id)
	if !ok || t.expired(t.entries[i], now) {
		return Entry{}, false
	}
	return t.entries[i], true
}

// Remove deletes a neighbor entry (e.g. on an explicit failure signal).
func (t *Table) Remove(id NodeID) {
	if i, ok := t.search(id); ok {
		t.entries = slices.Delete(t.entries, i, i+1)
	}
}

// Len returns the number of live entries as of now, purging expired ones.
func (t *Table) Len(now sim.Time) int {
	t.purge(now)
	return len(t.entries)
}

// IDs returns the live neighbor IDs in ascending order as of now.
func (t *Table) IDs(now sim.Time) []NodeID {
	t.purge(now)
	ids := make([]NodeID, len(t.entries))
	for i, e := range t.entries {
		ids[i] = e.ID
	}
	return ids
}

// Snapshot returns the live entries in ascending ID order as of now.
func (t *Table) Snapshot(now sim.Time) []Entry {
	t.purge(now)
	out := make([]Entry, len(t.entries))
	copy(out, t.entries)
	return out
}

func (t *Table) expired(e Entry, now sim.Time) bool {
	return t.ttl > 0 && now-e.LastSeen > t.ttl
}

// purge drops expired entries, compacting the slice in place.
func (t *Table) purge(now sim.Time) {
	if t.ttl <= 0 {
		return
	}
	t.entries = slices.DeleteFunc(t.entries, func(e Entry) bool { return t.expired(e, now) })
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
