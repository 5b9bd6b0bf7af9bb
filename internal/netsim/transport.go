package netsim

import (
	"slices"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The hop-by-hop retry/ack transport (Config.Faults.RetryLimit > 0). Its
// per-node state lives in World.retry, indexed by node ID and allocated
// only when the transport is on, so worlds without it carry none. The
// steady-state path hashes nothing and allocates nothing: pending entries
// come from a world free list, acks from a pool (on the synchronous
// radio), and duplicate suppression is a per-flow sequence bitset.

// ackPacket is the hop-level acknowledgement of one data packet. Acks
// travel by pointer, pooled like dataPacket on the synchronous radio.
type ackPacket struct {
	flow core.FlowID
	seq  uint64
}

// pendingKey identifies an in-flight (flow, seq) pair awaiting an ack.
// Keys are unique within one node's pending list.
type pendingKey struct {
	flow core.FlowID
	seq  uint64
}

// pendingTx is one unacked data transmission: the header to retransmit,
// the retry budget spent so far, and the armed timeout. It carries its
// owner and key so the shared retryFn callback can be scheduled with the
// entry itself as argument — no per-timer closure and no lookup when the
// timer fires. Entries are recycled through World.ptPool; an entry leaves
// a pending list only with its timer disarmed, so a timer that fires
// always finds its entry live.
type pendingTx struct {
	hdr      core.Header
	fr       *flowRuntime
	owner    *node
	key      pendingKey
	attempts int
	timer    sim.Handle
	armed    bool
}

// retryFn is the shared retry-timeout callback (see sim.AfterArg): every
// armed timer schedules this one function with its pendingTx as argument.
func retryFn(arg any) {
	pt := arg.(*pendingTx)
	pt.owner.onRetryTimeout(pt)
}

// retryState is one node's transport state.
type retryState struct {
	// pending holds the node's unacked transmissions. Only a packet whose
	// data or ack was lost stays pending past its Unicast, so the list is
	// short and a linear search beats hashing.
	pending []*pendingTx
	// seen holds one sequence bitset per flow the node received data of;
	// a node relays few flows, so it too is searched linearly.
	seen []seqSet
}

// seqSet records which sequence numbers of one flow a node has received.
// core.Source numbers a flow's packets densely from 1, so bit seq of bits
// is exact for any arrival order at one bit per packet.
type seqSet struct {
	flow core.FlowID
	bits []uint64
}

// take removes the pending entry with the given key and returns it, or
// nil when there is none. The list is unordered, so the last entry fills
// the hole.
func (rs *retryState) take(key pendingKey) *pendingTx {
	i := rs.index(key)
	if i < 0 {
		return nil
	}
	pt, last := rs.pending[i], len(rs.pending)-1
	rs.pending[i] = rs.pending[last]
	rs.pending[last] = nil
	rs.pending = rs.pending[:last]
	return pt
}

// index returns the position of the entry with the given key, or -1.
func (rs *retryState) index(key pendingKey) int {
	for i, pt := range rs.pending {
		if pt.key == key {
			return i
		}
	}
	return -1
}

// markSeen records (flow, seq) as received and reports whether it already
// was.
func (rs *retryState) markSeen(flow core.FlowID, seq uint64) bool {
	var s *seqSet
	for i := range rs.seen {
		if rs.seen[i].flow == flow {
			s = &rs.seen[i]
			break
		}
	}
	if s == nil {
		rs.seen = append(rs.seen, seqSet{flow: flow})
		s = &rs.seen[len(rs.seen)-1]
	}
	word, bit := seq/64, uint64(1)<<(seq%64)
	if n := int(word) + 1; n > len(s.bits) {
		// Words past len were never written, so growing into spare
		// capacity exposes zeros.
		s.bits = slices.Grow(s.bits, n-len(s.bits))[:n]
	}
	if s.bits[word]&bit != 0 {
		return true
	}
	s.bits[word] |= bit
	return false
}

// getPending returns a pending entry from the world's free list (or a new
// one); putPending recycles an entry that left its pending list. Unlike
// packet boxes, entries are recycled on every radio: the transport alone
// owns them, and a removed entry's timer is always disarmed.
func (w *World) getPending() *pendingTx {
	if n := len(w.ptPool); n > 0 {
		pt := w.ptPool[n-1]
		w.ptPool = w.ptPool[:n-1]
		return pt
	}
	return new(pendingTx)
}

func (w *World) putPending(pt *pendingTx) {
	w.ptPool = append(w.ptPool, pt)
}

// getAck and putAck are the ack counterpart of the packet pool, pooling
// only on the synchronous radio.
func (w *World) getAck() *ackPacket {
	if n := len(w.ackPool); n > 0 {
		a := w.ackPool[n-1]
		w.ackPool = w.ackPool[:n-1]
		return a
	}
	return new(ackPacket)
}

func (w *World) putAck(a *ackPacket) {
	if w.syncRadio {
		w.ackPool = append(w.ackPool, a)
	}
}

// sendReliable transmits a data packet to the flow's current next hop
// under the retry/ack transport, copying the header once, into the
// pending entry. The entry is registered before the transmission because
// the zero-bandwidth medium delivers — and acks — synchronously, so by
// the time Unicast returns the packet may already be acked.
func (n *node) sendReliable(fr *flowRuntime, hdr *core.Header) {
	w := n.world
	pt := w.getPending()
	pt.hdr = *hdr
	pt.fr, pt.owner = fr, n
	pt.key = pendingKey{flow: hdr.Flow, seq: hdr.Seq}
	pt.attempts, pt.armed = 0, false
	rs := &w.retry[n.id]
	rs.pending = append(rs.pending, pt)
	n.transmitPending(pt)
}

// transmitPending puts one pending packet on the air toward the flow
// table's current next hop and, if it is still unacked afterwards, arms
// the retry timeout.
//
// On the synchronous radio the ack can free pt inside the Unicast, and a
// later hop's sendReliable can reuse it before the Unicast returns. So
// after the Unicast the entry is looked up by its key in this node's
// list, never trusted through the pointer held before the call.
func (n *node) transmitPending(pt *pendingTx) {
	w := n.world
	rs := &w.retry[n.id]
	key, fr := pt.key, pt.fr
	entry, err := n.flows.Get(key.flow)
	if err != nil || entry.Next < 0 {
		w.putPending(rs.take(key))
		w.drop(fr)
		return
	}
	pkt := w.getPacket()
	pkt.hdr = pt.hdr
	err = w.medium.Unicast(n.id, entry.Next, pkt.hdr.PayloadBits, energy.CatTx, pkt)
	w.putPacket(pkt)
	if err != nil {
		// Unicast fails only before delivering, so the entry is still
		// listed.
		w.putPending(rs.take(key))
		w.drop(fr)
		w.noteDepletion(n, err)
		return
	}
	i := rs.index(key)
	if i < 0 {
		return // acked synchronously during the Unicast
	}
	pt = rs.pending[i]
	h, err := w.sched.AfterArg(sim.Time(w.cfg.Faults.RetryTimeout), retryFn, pt)
	if err != nil {
		return
	}
	pt.timer, pt.armed = h, true
}

// onRetryTimeout fires when a transmitted packet's ack did not arrive in
// time: retransmit while budget remains, then declare the link broken and
// either repair the route or drop the packet.
func (n *node) onRetryTimeout(pt *pendingTx) {
	w := n.world
	pt.armed = false
	if pt.attempts < w.cfg.Faults.RetryLimit {
		pt.attempts++
		w.transport.Retransmits++
		n.transmitPending(pt)
		return
	}
	// Retry budget exhausted: the next hop is unreachable from here. The
	// entry leaves the list but is recycled only after its header served
	// the re-send along a repaired route.
	w.retry[n.id].take(pt.key)
	w.transport.LinkBreaks++
	if w.observing {
		next := -1
		if entry, err := n.flows.Get(pt.key.flow); err == nil {
			next = entry.Next
		}
		w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindLinkBreak, Node: n.id,
			Flow: uint64(pt.key.flow), Seq: pt.key.seq, Peer: next})
	}
	if w.cfg.Faults.RouteRepair && w.repairFlow(pt.fr, n.id) {
		w.transport.Retransmits++
		n.sendReliable(pt.fr, &pt.hdr)
	} else {
		w.drop(pt.fr)
	}
	w.putPending(pt)
}

// onAck resolves a pending transmission. Acks that match nothing (the
// packet was already acked, or a retransmission raced its own late ack)
// are counted and ignored.
func (n *node) onAck(ack *ackPacket) {
	w := n.world
	pt := w.retry[n.id].take(pendingKey{flow: ack.flow, seq: ack.seq})
	if pt == nil {
		w.transport.DupAcks++
		return
	}
	if pt.armed {
		pt.timer.Cancel()
		pt.armed = false
	}
	w.putPending(pt)
	w.transport.Acks++
}
