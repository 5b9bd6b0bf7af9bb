package radio

import (
	"errors"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// testNode is one node of a testNet.
type testNode struct {
	pos      geom.Point
	battery  *energy.Battery
	received []receipt
}

type receipt struct {
	from NodeID
	msg  any
}

// testNet is a minimal Network for medium tests: nodes by index, with a
// brute-force receiver scan.
type testNet struct{ nodes []*testNode }

func (t *testNet) Len() int                          { return len(t.nodes) }
func (t *testNet) Position(id NodeID) geom.Point     { return t.nodes[id].pos }
func (t *testNet) Battery(id NodeID) *energy.Battery { return t.nodes[id].battery }

func (t *testNet) Receive(to, from NodeID, msg any) {
	n := t.nodes[to]
	n.received = append(n.received, receipt{from, msg})
}

func (t *testNet) AppendReceivers(dst []NodeID, from NodeID, r float64) []NodeID {
	p := t.nodes[from].pos
	for id, n := range t.nodes {
		if p.Dist2(n.pos) <= r*r {
			dst = append(dst, id)
		}
	}
	return dst
}

var _ Network = (*testNet)(nil)

func defaultConfig() Config {
	return Config{Tx: energy.DefaultTxModel(), Range: 200}
}

func setup(t *testing.T, cfg Config, positions ...geom.Point) (*sim.Scheduler, *Medium, []*testNode) {
	t.Helper()
	net := &testNet{nodes: make([]*testNode, len(positions))}
	for i, p := range positions {
		net.nodes[i] = &testNode{pos: p, battery: energy.NewBattery(100)}
	}
	sched := sim.NewScheduler()
	m, err := NewMedium(sched, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	return sched, m, net.nodes
}

func TestUnicastDeliversAndCharges(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	const bits = 8000.0
	if err := m.Unicast(0, 1, bits, energy.CatTx, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Fatalf("received %d messages, want 1", len(nodes[1].received))
	}
	if nodes[1].received[0].from != 0 || nodes[1].received[0].msg != "hello" {
		t.Errorf("receipt = %+v", nodes[1].received[0])
	}
	want := energy.DefaultTxModel().TxEnergy(100, bits)
	if got := nodes[0].battery.Spent(energy.CatTx); math.Abs(got-want) > 1e-12 {
		t.Errorf("sender spent %v, want %v", got, want)
	}
	if got := nodes[1].battery.TotalSpent(); got != 0 {
		t.Errorf("receiver spent %v, want 0 (tx-only model)", got)
	}
}

func TestUnicastPowerControl(t *testing.T) {
	// Energy scales with actual distance, not with range.
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 190))
	if err := m.Unicast(0, 1, 1000, energy.CatTx, 1); err != nil {
		t.Fatal(err)
	}
	near := nodes[0].battery.Spent(energy.CatTx)
	if err := m.Unicast(0, 2, 1000, energy.CatTx, 2); err != nil {
		t.Fatal(err)
	}
	far := nodes[0].battery.Spent(energy.CatTx) - near
	if far <= near {
		t.Errorf("far hop (%v J) should cost more than near hop (%v J)", far, near)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(201, 0))
	err := m.Unicast(0, 1, 1000, energy.CatTx, nil)
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if nodes[0].battery.TotalSpent() != 0 {
		t.Error("failed transmission should not consume energy")
	}
	if m.Stats().RangeDrops != 1 {
		t.Errorf("RangeDrops = %d, want 1", m.Stats().RangeDrops)
	}
}

func TestUnicastExactRange(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(200, 0))
	if err := m.Unicast(0, 1, 100, energy.CatTx, nil); err != nil {
		t.Fatalf("distance == range should work, got %v", err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Error("message not delivered at exact range")
	}
}

func TestUnicastUnknownNodes(t *testing.T) {
	_, m, _ := setup(t, defaultConfig(), geom.Pt(0, 0))
	if err := m.Unicast(0, 99, 10, energy.CatTx, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown receiver err = %v", err)
	}
	if err := m.Unicast(99, 0, 10, energy.CatTx, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown sender err = %v", err)
	}
}

func TestUnicastSenderDies(t *testing.T) {
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	nodes[0].battery = energy.NewBattery(1e-9) // nearly empty
	err := m.Unicast(0, 1, 1e9, energy.CatTx, nil)
	if !errors.Is(err, energy.ErrDepleted) {
		t.Fatalf("err = %v, want ErrDepleted", err)
	}
	if !nodes[0].battery.Depleted() {
		t.Error("sender should be depleted")
	}
	if len(nodes[1].received) != 0 {
		t.Error("dying sender should not deliver")
	}
	if m.Stats().DeadDrops != 1 {
		t.Errorf("DeadDrops = %d, want 1", m.Stats().DeadDrops)
	}
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(),
		geom.Pt(0, 0),   // sender
		geom.Pt(100, 0), // in range
		geom.Pt(0, 150), // in range
		geom.Pt(500, 0), // out of range
	)
	n, err := m.Broadcast(0, 800, energy.CatControl, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("reached %d receivers, want 2", n)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 || len(nodes[2].received) != 1 {
		t.Error("in-range nodes should receive the broadcast")
	}
	if len(nodes[3].received) != 0 {
		t.Error("out-of-range node should not receive")
	}
	if len(nodes[0].received) != 0 {
		t.Error("sender should not hear its own broadcast")
	}
}

func TestControlTrafficFreeByDefault(t *testing.T) {
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m.Broadcast(0, 800, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Unicast(0, 1, 800, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].battery.TotalSpent(); got != 0 {
		t.Errorf("control traffic cost %v J, want 0 (paper default)", got)
	}
}

func TestControlTrafficChargedWhenConfigured(t *testing.T) {
	cfg := defaultConfig()
	cfg.ChargeControl = true
	_, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m.Broadcast(0, 800, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	want := energy.DefaultTxModel().TxEnergy(200, 800) // full-range power
	if got := nodes[0].battery.Spent(energy.CatControl); math.Abs(got-want) > 1e-12 {
		t.Errorf("control broadcast cost %v, want %v", got, want)
	}
}

func TestBandwidthDelay(t *testing.T) {
	cfg := defaultConfig()
	cfg.Bandwidth = 8000 // bits/sec
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if err := m.Unicast(0, 1, 8000, energy.CatTx, nil); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 0 {
		t.Fatal("delivery should not be synchronous with positive bandwidth delay")
	}
	if err := sched.RunUntil(0.999); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 0 {
		t.Error("delivered before serialization delay elapsed")
	}
	if err := sched.RunUntil(1.0); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Error("not delivered after serialization delay")
	}
}

func TestInRange(t *testing.T) {
	_, m, _ := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(999, 0))
	if !m.InRange(0, 1) {
		t.Error("0-1 should be in range")
	}
	if m.InRange(0, 2) {
		t.Error("0-2 should be out of range")
	}
	if m.InRange(0, 42) {
		t.Error("unknown node is never in range")
	}
}

func TestMediumConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	net := &testNet{}
	if _, err := NewMedium(sched, Config{Tx: energy.DefaultTxModel(), Range: 0}, net); err == nil {
		t.Error("zero range should error")
	}
	if _, err := NewMedium(sched, Config{Tx: energy.DefaultTxModel(), Range: 100, Bandwidth: -1}, net); err == nil {
		t.Error("negative bandwidth should error")
	}
	if _, err := NewMedium(sched, Config{Tx: energy.TxModel{A: -1, B: 1, Alpha: 2}, Range: 100}, net); err == nil {
		t.Error("invalid tx model should error")
	}
	if _, err := NewMedium(nil, defaultConfig(), net); err == nil {
		t.Error("nil scheduler should error")
	}
	if _, err := NewMedium(sched, defaultConfig(), nil); err == nil {
		t.Error("nil network should error")
	}
}

func TestStatsCounts(t *testing.T) {
	sched, m, _ := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	for i := 0; i < 3; i++ {
		if err := m.Unicast(0, 1, 10, energy.CatTx, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Broadcast(1, 10, energy.CatControl, nil); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Unicasts != 3 || s.Broadcasts != 1 || s.Delivered != 4 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPositionConsultedAtSendTime(t *testing.T) {
	// A node that moved out of range since the medium was built must not
	// be reachable: the medium reads positions lazily.
	_, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	nodes[1].pos = geom.Pt(5000, 0)
	if err := m.Unicast(0, 1, 10, energy.CatTx, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("err = %v, want ErrOutOfRange after move", err)
	}
}

func TestRxCostChargedWhenConfigured(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = 1e-7
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if err := m.Unicast(0, 1, 8000, energy.CatTx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1e-7 * 8000
	if got := nodes[1].battery.Spent(energy.CatRx); math.Abs(got-want) > 1e-12 {
		t.Errorf("receiver spent %v on rx, want %v", got, want)
	}
	if len(nodes[1].received) != 1 {
		t.Error("message should still be delivered")
	}
}

func TestRxCostOffByDefault(t *testing.T) {
	sched, m, nodes := setup(t, defaultConfig(), geom.Pt(0, 0), geom.Pt(100, 0))
	if err := m.Unicast(0, 1, 8000, energy.CatTx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].battery.Spent(energy.CatRx); got != 0 {
		t.Errorf("rx charged %v with RxPerBit=0", got)
	}
}

func TestRxCostKillsReceiverAndDropsMessage(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = 1
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	nodes[1].battery = energy.NewBattery(10) // can't afford 8000 J of rx
	if err := m.Unicast(0, 1, 8000, energy.CatTx, "data"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 0 {
		t.Error("a receiver that died mid-reception must not get the message")
	}
	if !nodes[1].battery.Depleted() {
		t.Error("receiver should be depleted")
	}
	if m.Stats().DeadDrops != 1 {
		t.Errorf("DeadDrops = %d, want 1", m.Stats().DeadDrops)
	}
}

func TestRxCostControlFreeUnlessCharged(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = 1e-7
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m.Broadcast(0, 800, energy.CatControl, "beacon"); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes[1].battery.Spent(energy.CatRx); got != 0 {
		t.Errorf("control rx charged %v without ChargeControl", got)
	}
	cfg.ChargeControl = true
	sched2, m2, nodes2 := setup(t, cfg, geom.Pt(0, 0), geom.Pt(100, 0))
	if _, err := m2.Broadcast(0, 800, energy.CatControl, "beacon"); err != nil {
		t.Fatal(err)
	}
	if err := sched2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nodes2[1].battery.Spent(energy.CatRx); got <= 0 {
		t.Error("control rx should be charged with ChargeControl")
	}
}

func TestNegativeRxCostRejected(t *testing.T) {
	cfg := defaultConfig()
	cfg.RxPerBit = -1
	if _, err := NewMedium(sim.NewScheduler(), cfg, &testNet{}); err == nil {
		t.Error("negative rx cost should fail validation")
	}
}

// dropFrom is a scripted FaultHook losing every delivery to one receiver.
type dropFrom struct {
	to    NodeID
	dists []float64
}

func (d *dropFrom) Drop(from, to NodeID, dist, _ float64) bool {
	d.dists = append(d.dists, dist)
	return to == d.to
}

// TestDeferredBroadcastByID pins the positive-bandwidth broadcast path:
// the fault hook sees every receiver in ascending ID order with its
// distance from the sender, and the survivors are handed over by ID after
// the serialization delay, with receive energy charged to their own
// batteries.
func TestDeferredBroadcastByID(t *testing.T) {
	cfg := defaultConfig()
	cfg.Bandwidth = 800
	cfg.RxPerBit = 1e-6
	cfg.ChargeControl = true
	hook := &dropFrom{to: 2}
	cfg.Faults = hook
	sched, m, nodes := setup(t, cfg, geom.Pt(0, 0), geom.Pt(30, 40), geom.Pt(0, 100), geom.Pt(120, 160))
	n, err := m.Broadcast(0, 800, energy.CatControl, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("reached %d receivers, want 2 (one of three lost)", n)
	}
	if want := []float64{50, 100, 200}; len(hook.dists) != len(want) ||
		hook.dists[0] != want[0] || hook.dists[1] != want[1] || hook.dists[2] != want[2] {
		t.Errorf("fault hook distances = %v, want %v", hook.dists, want)
	}
	if len(nodes[1].received) != 0 {
		t.Fatal("delivered before the serialization delay")
	}
	if err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	for id, want := range []int{0, 1, 0, 1} {
		if got := len(nodes[id].received); got != want {
			t.Errorf("node %d received %d messages, want %d", id, got, want)
		}
	}
	if got := nodes[3].battery.Spent(energy.CatRx); math.Abs(got-800e-6) > 1e-15 {
		t.Errorf("receiver 3 rx energy = %v, want %v", got, 800e-6)
	}
	if got := nodes[2].battery.Spent(energy.CatRx); got != 0 {
		t.Errorf("lost delivery charged rx energy %v", got)
	}
	if s := m.Stats(); s.Broadcasts != 1 || s.Delivered != 2 || s.FaultDrops != 1 {
		t.Errorf("stats = %+v", s)
	}
}
