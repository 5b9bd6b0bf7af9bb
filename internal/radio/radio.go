// Package radio implements the wireless channel substrate: an ideal
// unit-disk medium with power-controlled unicast and broadcast, per-bit
// transmission energy accounting against node batteries, and configurable
// propagation/serialization delay.
//
// The channel is ideal by default (no loss, no MAC contention), matching
// the paper's simulator: its results depend on the energy geometry of the
// network, not on channel dynamics. A Config.Faults hook (satisfied by
// internal/fault's seeded Injector) optionally makes individual deliveries
// lossy; with the hook unset the ideal-channel code path is untouched.
package radio

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// NodeID identifies a node of the network.
type NodeID = int

// ErrOutOfRange is returned when the receiver is beyond radio range.
var ErrOutOfRange = errors.New("radio: receiver out of range")

// ErrUnknownNode is returned when a message addresses a node outside the
// network.
var ErrUnknownNode = errors.New("radio: unknown node")

// Network is the medium's view of the nodes it connects, addressed by
// dense ID 0..Len()-1: where each node is, what battery pays for its
// radio, which nodes a broadcast reaches, and how a message is handed
// over. Every send and delivery goes through it, so the medium holds no
// per-node state of its own.
type Network interface {
	// Len returns the node count; valid IDs are 0..Len()-1.
	Len() int
	// Position returns node id's current location; consulted at send time.
	Position(id NodeID) geom.Point
	// Battery returns the battery charged for node id's radio.
	Battery(id NodeID) *energy.Battery
	// Receive hands msg from node from to node to. It runs inside a
	// scheduler event, after the medium charged any receive energy.
	Receive(to, from NodeID, msg any)
	// AppendReceivers appends the IDs of every node within r of node
	// from's current position to dst, ascending, and returns the extended
	// slice. It may include from itself (Broadcast skips it).
	AppendReceivers(dst []NodeID, from NodeID, r float64) []NodeID
}

// Config parameterizes a Medium.
type Config struct {
	// Tx is the transmission energy model.
	Tx energy.TxModel
	// Range is the maximum communication distance in meters.
	Range float64
	// Bandwidth is the link rate in bits/second used to compute
	// serialization delay. Zero means instantaneous delivery: messages
	// are handed to the receiver synchronously, without a scheduler
	// event (the paper's simulator ignores transmission delay).
	Bandwidth float64
	// ChargeControl controls whether transmissions under
	// energy.CatControl draw from the battery. The paper treats control
	// traffic (HELLO beacons, notifications) as free; ablation A4 charges
	// it.
	ChargeControl bool
	// RxPerBit charges receivers this many joules per received data bit
	// (receiver electronics). The paper's model is transmit-only; zero
	// (the default) reproduces it. Control traffic is charged on receive
	// only when ChargeControl is also set.
	RxPerBit float64
	// Faults, when non-nil, is consulted once per delivery (per unicast,
	// and per receiver of a broadcast) and may declare the delivery lost.
	// The sender still pays transmission energy — loss happens in the
	// channel, after the radio has keyed up. Nil keeps the ideal lossless
	// channel.
	Faults FaultHook
}

// FaultHook decides whether an individual delivery is lost in the channel.
// internal/fault's *Injector satisfies it with a seeded, deterministic
// loss model; tests may install scripted hooks.
type FaultHook interface {
	// Drop reports whether the delivery from→to over distance dist is
	// lost, given the medium's configured range.
	Drop(from, to NodeID, dist, radioRange float64) bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Tx.Validate(); err != nil {
		return err
	}
	if c.Range <= 0 {
		return fmt.Errorf("radio: non-positive range %v", c.Range)
	}
	if c.Bandwidth < 0 {
		return fmt.Errorf("radio: negative bandwidth %v", c.Bandwidth)
	}
	if c.RxPerBit < 0 {
		return fmt.Errorf("radio: negative rx cost %v", c.RxPerBit)
	}
	return nil
}

// Stats counts medium activity.
type Stats struct {
	Unicasts   uint64
	Broadcasts uint64
	Delivered  uint64
	RangeDrops uint64
	DeadDrops  uint64
	// FaultDrops counts deliveries lost to the fault-injection hook.
	FaultDrops uint64
}

// Medium is the shared wireless channel. It is single-threaded, driven by
// the simulation scheduler.
type Medium struct {
	cfg   Config
	sched *sim.Scheduler
	net   Network
	// scratch is the reusable receiver-ID buffer for broadcasts; pool
	// recycles the deferred-delivery slots of the positive-bandwidth path
	// so in-flight messages do not allocate per hop.
	scratch []NodeID
	pool    []*delivery
	stats   Stats
}

// NewMedium creates a medium connecting the nodes of net on the given
// scheduler.
func NewMedium(sched *sim.Scheduler, cfg Config, net Network) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("radio: nil scheduler")
	}
	if net == nil {
		return nil, errors.New("radio: nil network")
	}
	return &Medium{cfg: cfg, sched: sched, net: net}, nil
}

// known reports whether id names a node of the network.
func (m *Medium) known(id NodeID) bool { return id >= 0 && id < m.net.Len() }

// Stats returns a copy of the activity counters.
func (m *Medium) Stats() Stats { return m.stats }

// Range returns the configured communication range.
func (m *Medium) Range() float64 { return m.cfg.Range }

// TxModel returns the medium's transmission energy model.
func (m *Medium) TxModel() energy.TxModel { return m.cfg.Tx }

// InRange reports whether two nodes of the network are currently within
// communication range of each other.
func (m *Medium) InRange(a, b NodeID) bool {
	if !m.known(a) || !m.known(b) {
		return false
	}
	return m.net.Position(a).Dist(m.net.Position(b)) <= m.cfg.Range
}

// Unicast transmits bits from one node to another with power control: the
// sender spends exactly E_T(d, bits) for the current distance d. The
// message is delivered through the scheduler after the serialization
// delay. Errors: ErrUnknownNode, ErrOutOfRange, energy.ErrDepleted (the
// sender died mid-transmission; nothing is delivered).
func (m *Medium) Unicast(from, to NodeID, bits float64, cat energy.Category, msg any) error {
	if !m.known(from) {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	if !m.known(to) {
		return fmt.Errorf("%w: receiver %d", ErrUnknownNode, to)
	}
	d := m.net.Position(from).Dist(m.net.Position(to))
	if d > m.cfg.Range {
		m.stats.RangeDrops++
		return fmt.Errorf("%w: %d -> %d at %.1f m (range %.1f m)", ErrOutOfRange, from, to, d, m.cfg.Range)
	}
	m.stats.Unicasts++
	if err := m.charge(from, m.cfg.Tx.TxEnergy(d, bits), cat); err != nil {
		m.stats.DeadDrops++
		return fmt.Errorf("radio: unicast %d -> %d: %w", from, to, err)
	}
	if m.cfg.Faults != nil && m.cfg.Faults.Drop(from, to, d, m.cfg.Range) {
		// The loss is silent: the sender paid for the transmission and
		// gets no error — reliability, if wanted, lives in the transport
		// above (netsim's retry/ack layer).
		m.stats.FaultDrops++
		return nil
	}
	m.deliver(from, to, bits, cat, msg)
	return nil
}

// Broadcast transmits bits from one node to every node currently in range,
// spending the energy of a full-range transmission once. Receivers are
// served in ascending ID order. It returns the number of receivers, or an
// error if the sender is unknown or died mid-transmission.
func (m *Medium) Broadcast(from NodeID, bits float64, cat energy.Category, msg any) (int, error) {
	if !m.known(from) {
		return 0, fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	m.stats.Broadcasts++
	if err := m.charge(from, m.cfg.Tx.TxEnergy(m.cfg.Range, bits), cat); err != nil {
		m.stats.DeadDrops++
		return 0, fmt.Errorf("radio: broadcast from %d: %w", from, err)
	}
	origin := m.net.Position(from)
	// Detach the scratch buffer while iterating so a reentrant broadcast
	// cannot clobber it.
	ids := m.net.AppendReceivers(m.scratch[:0], from, m.cfg.Range)
	m.scratch = nil
	n := 0
	for _, id := range ids {
		if id == from {
			continue
		}
		if m.cfg.Faults != nil && m.cfg.Faults.Drop(from, id, origin.Dist(m.net.Position(id)), m.cfg.Range) {
			m.stats.FaultDrops++
			continue
		}
		m.deliver(from, id, bits, cat, msg)
		n++
	}
	m.scratch = ids
	return n, nil
}

func (m *Medium) charge(sender NodeID, joules float64, cat energy.Category) error {
	if cat == energy.CatControl && !m.cfg.ChargeControl {
		return nil
	}
	return m.net.Battery(sender).Draw(joules, cat)
}

// delivery is one in-flight message of the positive-bandwidth path,
// recycled through the medium's pool so serialization delay costs no
// allocation per hop.
type delivery struct {
	m        *Medium
	from, to NodeID
	bits     float64
	cat      energy.Category
	msg      any
}

// deliverFn is the shared scheduler callback for deferred deliveries.
var deliverFn sim.Func = func(arg any) {
	d := arg.(*delivery)
	m, from, to, bits, cat, msg := d.m, d.from, d.to, d.bits, d.cat, d.msg
	*d = delivery{}
	m.pool = append(m.pool, d)
	m.handoff(from, to, bits, cat, msg)
}

func (m *Medium) deliver(from, to NodeID, bits float64, cat energy.Category, msg any) {
	if m.cfg.Bandwidth <= 0 {
		// Zero serialization delay: deliver synchronously. This keeps
		// dense control traffic (HELLO floods) off the event queue.
		m.handoff(from, to, bits, cat, msg)
		return
	}
	var d *delivery
	if n := len(m.pool); n > 0 {
		d = m.pool[n-1]
		m.pool = m.pool[:n-1]
	} else {
		d = new(delivery)
	}
	*d = delivery{m: m, from: from, to: to, bits: bits, cat: cat, msg: msg}
	delay := sim.Time(bits / m.cfg.Bandwidth)
	// Scheduling only fails for invalid times, which cannot arise from a
	// validated bandwidth; treat failure as a programming error.
	if _, err := m.sched.AfterArg(delay, deliverFn, d); err != nil {
		panic(fmt.Sprintf("radio: scheduling delivery: %v", err))
	}
}

// handoff completes one delivery at the receiver.
func (m *Medium) handoff(from, to NodeID, bits float64, cat energy.Category, msg any) {
	if !m.chargeRx(to, bits, cat) {
		m.stats.DeadDrops++
		return
	}
	m.stats.Delivered++
	m.net.Receive(to, from, msg)
}

// chargeRx draws receiver electronics energy; it reports whether the
// receiver survived to take the message.
func (m *Medium) chargeRx(to NodeID, bits float64, cat energy.Category) bool {
	if m.cfg.RxPerBit <= 0 {
		return true
	}
	if cat == energy.CatControl && !m.cfg.ChargeControl {
		return true
	}
	return m.net.Battery(to).Draw(m.cfg.RxPerBit*bits, energy.CatRx) == nil
}
