package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/metrics"
)

// TestSeqSetMatchesMap checks the per-flow sequence bitsets against a map
// model on random receive streams: several flows per node, out-of-order
// arrivals, duplicates, gaps, and sequence numbers across word
// boundaries up to beyond 2^16.
func TestSeqSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rs retryState
		model := make(map[pendingKey]bool)
		next := make(map[core.FlowID]uint64)
		last := pendingKey{flow: 1}
		for op := 0; op < 5000; op++ {
			flow := core.FlowID(1 + rng.Intn(4))
			var seq uint64
			switch r := rng.Intn(10); {
			case r < 4: // in order, sometimes skipping ahead (a gap)
				next[flow] += 1 + uint64(rng.Intn(3))
				seq = next[flow]
			case r < 6: // reordered behind the stream head
				seq = next[flow] - uint64(rng.Intn(int(next[flow])+1))
			case r < 8: // anywhere, including far past 2^16
				seq = uint64(rng.Intn(1 << 17))
			case r < 9: // a word boundary
				seq = uint64(64*(1+rng.Intn(1<<11))) + uint64(rng.Intn(3)) - 1
			default: // a duplicate of the previous arrival
				flow, seq = last.flow, last.seq
			}
			key := pendingKey{flow: flow, seq: seq}
			if got, want := rs.markSeen(flow, seq), model[key]; got != want {
				t.Fatalf("seed %d op %d: markSeen(%d, %d) = %v, want %v", seed, op, flow, seq, got, want)
			}
			model[key] = true
			last = key
		}
		if len(rs.seen) > 4 {
			t.Fatalf("seed %d: %d bitsets for 4 flows", seed, len(rs.seen))
		}
	}
}

// TestPendingListMatchesMap checks a node's pending list against a map
// model under random insert, lookup, and ack-remove.
func TestPendingListMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rs retryState
		model := make(map[pendingKey]*pendingTx)
		randKey := func() pendingKey {
			return pendingKey{flow: core.FlowID(1 + rng.Intn(3)), seq: uint64(rng.Intn(12))}
		}
		for op := 0; op < 3000; op++ {
			key := randKey()
			switch rng.Intn(3) {
			case 0: // insert; keys are unique within one node's list
				if model[key] == nil {
					pt := &pendingTx{key: key}
					rs.pending = append(rs.pending, pt)
					model[key] = pt
				}
			case 1:
				i := rs.index(key)
				if (i < 0) != (model[key] == nil) || i >= 0 && rs.pending[i] != model[key] {
					t.Fatalf("seed %d op %d: index(%v) = %d, model entry %p", seed, op, key, i, model[key])
				}
			case 2: // ack
				if got := rs.take(key); got != model[key] {
					t.Fatalf("seed %d op %d: take(%v) = %p, want %p", seed, op, key, got, model[key])
				}
				delete(model, key)
			}
			if len(rs.pending) != len(model) {
				t.Fatalf("seed %d op %d: %d pending, model has %d", seed, op, len(rs.pending), len(model))
			}
		}
		for key, pt := range model {
			if i := rs.index(key); i < 0 || rs.pending[i] != pt {
				t.Fatalf("seed %d: final index(%v) = %d, want entry %p", seed, key, i, pt)
			}
		}
	}
}

// TestPendingRecycledMidUnicast pins the recycling hazard of the pooled
// pending entries. On the synchronous radio a packet crosses every clean
// hop inside its source's Unicast: each hop's ack frees the sender's
// entry, and the next hop's sendReliable takes that same entry from the
// pool. When a later hop then loses the packet, the entry stays pending at
// that hop, so an earlier sender must look its own entry up by key after
// its Unicast returns — trusting the pointer would arm a second timer on
// another node's entry.
//
// Flows A = 0→1→2→3 and B = 4→1→2→3 share relays 1 and 2, with
// RetryLimit 2 and a 1.5 s timeout, longer than the 1.024 s packet
// interval. Data evaluations are "d", ack evaluations "a", lost ones "L":
//
//	t=0      A#1: d0→1 a d1→2 a d2→3 L          relay 2 holds A#1
//	t=0      B#1: d4→1 a d1→2 a d2→3 L          relay 2 holds A#1, B#1
//	t=1.024  A#2: d0→1 a d1→2 a d2→3 L          A#2's entry, recycled from
//	                                              node 0 and node 1, stays
//	                                              pending at relay 2
//	t=1.024  B#2: d4→1 a d1→2 a d2→3 aL         delivered, ack lost
//	t=1.5    A#1, B#1 retransmitted: d a, d a   both delivered
//	t=2.048  A#3: d0→1 L
//	t=2.524  A#2 retransmitted: d a             delivered
//	t=2.524  B#2 retransmitted: d a             duplicate, suppressed
//	t=3.548, 5.048  A#3 retransmitted: L, L
//	t=6.548  A#3 exhausted                      link break, dropped
func TestPendingRecycledMidUnicast(t *testing.T) {
	const (
		L = true
		o = false
	)
	script := []bool{
		o, o, o, o, L, // A#1
		o, o, o, o, L, // B#1
		o, o, o, o, L, // A#2
		o, o, o, o, o, L, // B#2
		o, o, o, o, // A#1, B#1 retransmissions
		L,    // A#3
		o, o, // A#2 retransmission
		o, o, // B#2 retransmission
		L, L, // A#3 retransmissions
	}
	cfg := faultChainCfg(&fault.Config{Script: script, RetryLimit: 2, RetryTimeout: 1.5})
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0), geom.Pt(300, 0), geom.Pt(100, 150)}
	energies := []float64{1e6, 1e6, 1e6, 1e6, 1e6}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	const pkt = 8192
	if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 3 * pkt, Path: []NodeID{0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddFlow(FlowSpec{Src: 4, Dst: 3, LengthBits: 2 * pkt, Path: []NodeID{4, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	// Between B#2 and the first timeouts, relay 2 holds all four entries
	// armed, and nothing else is pending anywhere.
	if _, err := w.sched.At(1.2, func() {
		for id := range w.retry {
			want := 0
			if id == 2 {
				want = 4
			}
			if got := len(w.retry[id].pending); got != want {
				t.Errorf("t=1.2: node %d holds %d pending entries, want %d", id, got, want)
			}
		}
		for _, pt := range w.retry[2].pending {
			if !pt.armed || pt.owner.id != 2 {
				t.Errorf("t=1.2: relay 2 entry %+v armed=%v owner=%d", pt.key, pt.armed, pt.owner.id)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}

	want := metrics.TransportStats{Retransmits: 6, Acks: 12, DupData: 1, LinkBreaks: 1}
	if res.Transport != want {
		t.Errorf("transport %+v, want %+v", res.Transport, want)
	}
	if res.Faults.Evaluated != uint64(len(script)) || res.Faults.Dropped != 7 {
		t.Errorf("faults %+v, want %d evaluated, 7 dropped", res.Faults, len(script))
	}
	a, b := res.Flows[0], res.Flows[1]
	if a.PacketsEmitted != 3 || a.PacketsDropped != 1 || a.DeliveredBits != 2*pkt || a.Completed {
		t.Errorf("flow A %+v, want 3 emitted, 1 dropped, %d bits, incomplete", a, 2*pkt)
	}
	if b.PacketsEmitted != 2 || b.PacketsDropped != 0 || b.DeliveredBits != 2*pkt || !b.Completed {
		t.Errorf("flow B %+v, want 2 emitted, 0 dropped, %d bits, complete", b, 2*pkt)
	}
	for id := range w.retry {
		if n := len(w.retry[id].pending); n != 0 {
			t.Errorf("node %d ends with %d pending entries", id, n)
		}
	}
}
