package netsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topo"
)

// retryGoldenResult runs the retry/ack transport with route repair, channel
// loss and a relay crash on two flows that share their source, over a
// radio of the given bandwidth. At zero bandwidth delivery is synchronous
// and packets and acks are pooled. At 250 kb/s every message sits in the
// scheduler until its serialization delay elapses, so acks are never
// pooled, retry timers outlive the send that armed them, and the 30 ms
// timeout — shorter than one data packet's 33 ms serialization — makes
// every hop retransmit before its ack is back: duplicate data, duplicate
// acks and retry exhaustion all happen.
func retryGoldenResult(t *testing.T, bandwidth float64) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = ModeInformed
	cfg.Radio.Bandwidth = bandwidth
	cfg.Faults = &fault.Config{
		LossP: 0.1, Seed: 7,
		RetryLimit: 2, RetryTimeout: 0.03,
		RouteRepair: true,
		Crashes:     []fault.Crash{{Node: 3, At: 40, RecoverAt: 200}},
	}
	src := stats.NewSource(42)
	pts := topo.PlaceUniform(src, 60, 800, 800)
	energies := make([]float64, len(pts))
	for i := range energies {
		energies[i] = src.Uniform(5000, 10000)
	}
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	for j := 1; j < len(pts) && added < 2; j++ {
		if path, err := g.GreedyPath(0, j); err == nil && len(path) >= 4 {
			if _, err := w.AddFlow(FlowSpec{Src: 0, Dst: j, LengthBits: 1e6}); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if added < 2 {
		t.Fatal("fewer than two routable flows")
	}
	res, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Golden values of the retry runs, recorded on the map-backed transport
// that predates the pooled pending list and the sequence bitsets. The
// digest folds the whole Result (JSON, FNV-1a).
var retryGoldens = []struct {
	name      string
	bandwidth float64
	digest    uint64
	transport metrics.TransportStats
}{
	{"deferred", 250e3, 0xfffb44730a0eef7e, metrics.TransportStats{
		Retransmits: 943, Acks: 653, DupAcks: 525, DupData: 638, LinkBreaks: 96, RouteRepairs: 11}},
	{"sync", 0, 0xdd96a9b26265db82, metrics.TransportStats{
		Retransmits: 302, Acks: 655, DupData: 71, LinkBreaks: 86, RouteRepairs: 3}},
}

// TestGoldenRetryTransport pins the transport on both radios; the
// positive-bandwidth row is the only pin on the unpooled, deferred path.
func TestGoldenRetryTransport(t *testing.T) {
	for _, g := range retryGoldens {
		t.Run(g.name, func(t *testing.T) {
			res := retryGoldenResult(t, g.bandwidth)
			if res.Transport != g.transport {
				t.Errorf("transport counters %+v, want %+v", res.Transport, g.transport)
			}
			if got := resultDigest(t, res); got != g.digest {
				t.Errorf("Result digest %#x, want %#x (faults %+v, medium %+v, flows %+v)",
					got, g.digest, res.Faults, res.Medium, res.Flows)
			}
		})
	}
}
