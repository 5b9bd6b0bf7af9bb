package netsim

import (
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/hello"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/trace"
)

// node carries one node's protocol state: flow table, last advertised
// beacon, and AODV instance. The dense per-node state — position,
// battery, alive flag, grid cell — lives in the world's struct-of-arrays
// nodeStore (see store.go) and is reached through the pos/battery/dead
// accessors; the HELLO neighbor table lives in the world's tables arena
// and the retry transport's state in World.retry, both indexed by node ID.
type node struct {
	id    NodeID
	world *World
	flows *core.Table
	// lastAdvert is the state this node last broadcast in a HELLO;
	// triggered updates compare against it.
	lastAdvert hello.Beacon
	// aodv is the on-demand routing instance, created when the world
	// uses AODV discovery.
	aodv *routing.Instance
}

func (n *node) beacon() hello.Beacon {
	return hello.Beacon{ID: n.id, Position: n.pos(), Residual: n.battery().Residual()}
}

// shouldBeacon reports whether the node's advertised state has drifted
// past the triggered-update thresholds.
func (n *node) shouldBeacon() bool {
	w := n.world
	// Most nodes are stationary between HELLO rounds (only on-path relays
	// move), so skip the hypot for an unmoved position — Dist(p, p) is
	// exactly 0, making this fast path bit-identical.
	pos := n.pos()
	var moved float64
	if pos != n.lastAdvert.Position {
		moved = pos.Dist(n.lastAdvert.Position)
	}
	drift := math.Abs(n.battery().Residual() - n.lastAdvert.Residual)
	ref := n.lastAdvert.Residual
	if ref < 1 {
		ref = 1
	}
	return moved >= w.cfg.BeaconMoveEps || drift >= w.cfg.BeaconEnergyFrac*ref
}

// sendBeacon broadcasts the node's HELLO and records it as the last
// advertised state.
func (n *node) sendBeacon() {
	w := n.world
	b := w.getBeacon()
	*b = n.beacon()
	_, err := w.medium.Broadcast(n.id, w.cfg.HelloBits, energy.CatControl, b)
	w.putBeacon(b)
	if err != nil {
		w.noteDepletion(n, err)
		return
	}
	n.lastAdvert = *b
}

// maybeBeacon broadcasts the node's HELLO if its advertised state has
// drifted past the triggered-update thresholds.
func (n *node) maybeBeacon() {
	if n.shouldBeacon() {
		n.sendBeacon()
	}
}

var _ radio.Network = (*World)(nil)

// Receive implements radio.Network. A dead receiver swallows the message;
// a HELLO beacon refreshes the receiver's neighbor table straight in the
// world's arena, and any other message goes to the node's protocol
// handlers.
func (w *World) Receive(to, from NodeID, msg any) {
	if w.store.dead[to] {
		// A dead relay silently swallows traffic. Without the retry
		// transport, in-flight accounting must still see the packet end;
		// with it, the sender's retry timer owns the packet's fate (it will
		// retransmit, then exhaust into a drop or a route repair), so
		// accounting the loss here would double-count it.
		if pkt, ok := msg.(*dataPacket); ok && !w.retryEnabled() {
			if fr := w.flow(pkt.hdr.Flow); fr != nil {
				w.drop(fr)
			}
		}
		return
	}
	if b, ok := msg.(*hello.Beacon); ok {
		w.tables[to].Update(*b, w.sched.Now())
		return
	}
	n := w.nodes[to]
	switch m := msg.(type) {
	case *dataPacket:
		n.onData(from, m)
	case *ackPacket:
		n.onAck(m)
	case core.Notification:
		n.onNotification(from, m)
	}
}

// onData executes the Figure 1 FlowOperations for a received data packet.
func (n *node) onData(from NodeID, pkt *dataPacket) {
	w := n.world
	// Operate on the packet's header in place rather than copying it: the
	// sender keeps the box alive until its Unicast returns, and relay
	// processing (ProcessRelay's aggregate updates) owns the header for
	// the remainder of the hop.
	hdr := &pkt.hdr
	fr := w.flow(hdr.Flow)
	if fr == nil {
		return
	}
	if w.retryEnabled() {
		// Ack first — even duplicates, whose previous ack may have been
		// lost — then suppress re-processing of data already seen here.
		ack := w.getAck()
		ack.flow, ack.seq = hdr.Flow, hdr.Seq
		err := w.medium.Unicast(n.id, from, w.cfg.Faults.EffectiveAckBits(), energy.CatControl, ack)
		w.putAck(ack)
		if err != nil {
			w.noteDepletion(n, err)
			if n.dead() {
				return
			}
		}
		if w.retry[n.id].markSeen(hdr.Flow, hdr.Seq) {
			w.transport.DupData++
			return
		}
	}
	entry, err := n.flows.Get(hdr.Flow)
	if err != nil {
		// Flow state was pre-installed at AddFlow; a missing entry means
		// the packet strayed off its pinned path. Drop it.
		w.drop(fr)
		return
	}
	if w.observing {
		w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindPacketDelivered, Node: n.id,
			Flow: uint64(hdr.Flow), Seq: hdr.Seq})
	}

	if hdr.Dst == n.id {
		n.deliver(fr, entry, hdr)
		return
	}

	view, ok := n.flowView(entry, hdr)
	if !ok {
		// A flow neighbor is gone from the HELLO table (died or expired):
		// the packet cannot be processed or forwarded.
		w.drop(fr)
		return
	}
	decision, err := core.ProcessRelay(entry, hdr, w.cfg.Strategy, w.cfg.Radio.Tx, w.cfg.Mobility, view)
	if err != nil {
		w.drop(fr)
		return
	}
	// Forward first (from the current position), then move.
	if w.retryEnabled() {
		n.sendReliable(fr, hdr)
		if n.dead() {
			return
		}
	} else {
		fwd := w.getPacket()
		fwd.hdr = *hdr
		err := w.medium.Unicast(n.id, entry.Next, hdr.PayloadBits, energy.CatTx, fwd)
		w.putPacket(fwd)
		if err != nil {
			w.drop(fr)
			w.noteDepletion(n, err)
			if n.dead() {
				return
			}
		}
	}
	if decision.Move && w.cfg.Mode != ModeNoMobility {
		n.move()
	}
}

// deliver handles arrival at the destination: account the payload and run
// UpdateMobilityStatus.
func (n *node) deliver(fr *flowRuntime, entry *core.FlowEntry, hdr *core.Header) {
	w := n.world
	if fr.inflight > 0 {
		fr.inflight--
	}
	fr.deliveredPkts++
	fr.delivered += hdr.PayloadBits
	fr.lastDelivery = w.sched.Now()
	w.lastActivity = w.sched.Now()
	entry.Enabled = hdr.Enabled
	entry.ResidualBits = hdr.ResidualBits

	if w.cfg.Mode == ModeInformed {
		if dec := core.EvaluateStatus(hdr); dec.Notify {
			fr.notifications++
			w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNotification, Node: n.id,
				Flow: uint64(hdr.Flow), Enable: dec.Enable})
			n.sendNotification(fr, core.Notification{
				Flow: hdr.Flow, Src: hdr.Src, Dst: hdr.Dst,
				Enable: dec.Enable, With: hdr.With, Without: hdr.Without,
			})
		}
	}
	if fr.source.Done() && fr.inflight == 0 {
		w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindFlowDone, Node: n.id,
			Flow: uint64(fr.id), Bits: fr.delivered})
		w.maybeFinish()
	}
}

// sendNotification forwards a status-change notification one hop back
// toward the source along the pinned reverse path.
func (n *node) sendNotification(fr *flowRuntime, note core.Notification) {
	w := n.world
	entry, err := n.flows.Get(note.Flow)
	if err != nil {
		return
	}
	if entry.Prev < 0 {
		return
	}
	if err := w.medium.Unicast(n.id, entry.Prev, w.cfg.NotificationBits, energy.CatControl, note); err != nil {
		w.noteDepletion(n, err)
	}
}

// onNotification relays a feedback packet toward the source, or applies it
// when this node is the source.
func (n *node) onNotification(from NodeID, note core.Notification) {
	w := n.world
	fr := w.flow(note.Flow)
	if fr == nil {
		return
	}
	if note.Src == n.id {
		if err := fr.source.ApplyNotification(note); err == nil {
			fr.statusFlips++
			w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindStatusChange, Node: n.id,
				Flow: uint64(note.Flow), Enable: note.Enable})
		}
		return
	}
	n.sendNotification(fr, note)
}

// flowView assembles the relay's local view for the Fig 1 computation from
// its own state and its HELLO neighbor table.
func (n *node) flowView(entry *core.FlowEntry, hdr *core.Header) (mobility.View, bool) {
	w := n.world
	now := w.sched.Now()
	nb := &w.tables[n.id]
	prev, ok := nb.Get(entry.Prev, now)
	if !ok {
		return mobility.View{}, false
	}
	next, ok := nb.Get(entry.Next, now)
	if !ok {
		return mobility.View{}, false
	}
	return mobility.View{
		Prev:         mobility.Peer{ID: prev.ID, Pos: prev.Position, Residual: prev.Residual},
		Self:         mobility.Peer{ID: n.id, Pos: n.pos(), Residual: n.battery().Residual()},
		Next:         mobility.Peer{ID: next.ID, Pos: next.Position, Residual: next.Residual},
		ResidualBits: hdr.ResidualBits,
	}, true
}

// move advances the node one mobility step toward its (possibly combined,
// for multi-flow relays) target, charging locomotion energy.
func (n *node) move() {
	w := n.world
	target, ok := n.combinedTarget()
	if !ok {
		return
	}
	cur := n.pos()
	desired := math.Min(w.cfg.MaxStep, cur.Dist(target))
	if desired < geom.Epsilon {
		return
	}
	// Never break an active flow's links: shrink the step until every
	// flow neighbor stays within radio range (movement that partitions
	// the flows it is meant to optimize is always wrong). A small margin
	// absorbs the neighbors' own concurrent movement.
	for {
		candidate, _ := geom.StepToward(cur, target, desired)
		if n.linksSurvive(candidate) {
			break
		}
		desired /= 2
		if desired < geom.Epsilon {
			return
		}
	}
	cost := w.cfg.Mobility.MoveEnergy(desired)
	if cost > 0 && !n.battery().CanDraw(cost) {
		// Move as far as the battery allows, then die.
		desired = n.battery().Residual() / w.cfg.Mobility.K
		cost = n.battery().Residual()
	}
	if cost > 0 {
		if err := n.battery().Draw(cost, energy.CatMove); err != nil {
			w.noteDepletion(n, err)
		}
	}
	next, _ := geom.StepToward(cur, target, desired)
	w.moveNode(n.id, next)
	if w.observing {
		w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNodeMoved, Node: n.id, Pos: next})
	}
}

// linksSurvive reports whether, at the candidate position, every flow
// neighbor of this node (as known from its HELLO table) remains within
// radio range, with a small margin for the neighbors' own movement.
func (n *node) linksSurvive(candidate geom.Point) bool {
	w := n.world
	now := w.sched.Now()
	const margin = 0.98
	limit := w.cfg.Radio.Range * margin
	nb := &w.tables[n.id]
	w.entryScratch = n.flows.AppendEntries(w.entryScratch[:0])
	for _, e := range w.entryScratch {
		for _, peer := range [2]NodeID{e.Prev, e.Next} {
			if peer < 0 {
				continue
			}
			entry, ok := nb.Get(peer, now)
			if !ok {
				continue
			}
			// A link already past the margin (e.g. a hop at exactly the
			// radio range) only constrains the step not to worsen it.
			allowed := limit
			if cur := n.pos().Dist(entry.Position); cur > allowed {
				allowed = cur
			}
			if candidate.Dist(entry.Position) > allowed {
				return false
			}
		}
	}
	return true
}

// combinedTarget returns the node's movement target: the single enabled
// flow's strategy target, or the residual-bits-weighted centroid when the
// node relays several enabled flows (the technical-report multi-flow
// extension).
func (n *node) combinedTarget() (geom.Point, bool) {
	w := n.world
	w.entryScratch = n.flows.AppendEntries(w.entryScratch[:0])
	targets := w.targetScratch[:0]
	weights := w.weightScratch[:0]
	for _, e := range w.entryScratch {
		if !e.Enabled || !e.HasTarget || e.Dst == n.id || e.Src == n.id {
			continue
		}
		targets = append(targets, e.Target)
		weights = append(weights, e.ResidualBits)
	}
	w.targetScratch, w.weightScratch = targets, weights
	if len(targets) == 0 {
		return geom.Point{}, false
	}
	combined, err := mobility.WeightedTarget(targets, weights, n.pos())
	if err != nil {
		return geom.Point{}, false
	}
	return combined, true
}

// flow finds a flow runtime by ID.
