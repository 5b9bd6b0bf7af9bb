package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"

	imobif "repro"
)

// baseOpts mirrors the CLI flag defaults for a small fast run.
func baseOpts() runOpts {
	return runOpts{
		nodes: 40, field: 800, rng: 200, k: 0.5, alpha: 2, flowKB: 100,
		strategy: "min-energy", mode: "informed", seed: 3,
		energyLo: 5000, energyHi: 10000,
	}
}

func TestRunBasicScenario(t *testing.T) {
	o := baseOpts()
	o.compare = true
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunLifetimeScenario(t *testing.T) {
	o := baseOpts()
	o.flowKB = 10240
	o.strategy = "max-lifetime"
	o.mode = "cost-unaware"
	o.compare, o.deaths = true, true
	o.energyLo, o.energyHi = 100, 200
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadStrategy(t *testing.T) {
	o := baseOpts()
	o.strategy = "teleport"
	if err := run(io.Discard, o); err == nil {
		t.Error("bad strategy should error")
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	o := baseOpts()
	o.mode = "yolo"
	if err := run(io.Discard, o); err == nil {
		t.Error("bad mode should error")
	}
}

func TestRunRejectsBadFaults(t *testing.T) {
	o := baseOpts()
	o.faults = faultOpts{loss: 1.5}
	if err := run(io.Discard, o); err == nil {
		t.Error("loss probability 1.5 should error")
	}
	o.faults = faultOpts{retry: 3, retryTimeout: 0}
	if err := run(io.Discard, o); err == nil {
		t.Error("retry without a timeout should error")
	}
}

// TestRunLossySummaryFormat pins the fault-mode summary layout: a faults
// echo line plus channel, transport, and delivery counter lines. Scripts
// parse these, so the shape is load-bearing.
func TestRunLossySummaryFormat(t *testing.T) {
	var buf bytes.Buffer
	o := baseOpts()
	o.faults = faultOpts{loss: 0.1, retry: 5, retryTimeout: 0.2, seed: 7}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, re := range []string{
		`(?m)^faults: loss 0\.10, burst 0\.0, 0 crash\(es\), retry 5 @ 0\.20 s, repair false, seed 7$`,
		`(?m)^channel: \d+ unicast / \d+ broadcast, \d+ delivered, drops: \d+ range, \d+ dead, \d+ fault$`,
		`(?m)^transport: \d+ retransmit\(s\), \d+ ack\(s\), \d+ dup-ack\(s\), \d+ dup-data, \d+ link-break\(s\), \d+ repair\(s\)$`,
		`(?m)^delivery: \d+/\d+ packets \(ratio [01]\.\d{3}\), channel loss rate 0\.\d{3}$`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("summary missing line matching %s\noutput:\n%s", re, out)
		}
	}
	// At p=0.1 with retries the channel must actually have dropped
	// something, so the counters are live rather than decorative.
	if regexp.MustCompile(`(?m)^channel: .* 0 fault$`).MatchString(out) {
		t.Errorf("fault drop counter stayed zero at loss 0.1:\n%s", out)
	}
}

// TestRunIdealSummaryOmitsFaultLines pins the flip side: without fault
// flags the summary stays byte-compatible with the pre-fault CLI.
func TestRunIdealSummaryOmitsFaultLines(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, baseOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"faults:", "channel:", "transport:", "delivery:"} {
		if strings.Contains(out, banned) {
			t.Errorf("ideal-channel summary contains %q:\n%s", banned, out)
		}
	}
}

func TestRunWithCrashes(t *testing.T) {
	var buf bytes.Buffer
	o := baseOpts()
	o.flowKB = 2048
	o.faults = faultOpts{crash: 2, retry: 3, retryTimeout: 0.25, repair: true, seed: 11}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 crash(es)") {
		t.Errorf("crash count not echoed:\n%s", buf.String())
	}
}

func TestScheduleCrashesRejectsTooMany(t *testing.T) {
	cfg := imobif.DefaultConfig()
	cfg.Nodes = 3
	cfg.FieldWidth, cfg.FieldHeight = 100, 100
	net, err := imobif.NewRandomNetwork(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := imobif.NewSimulation(cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	err = scheduleCrashes(sim, 3, 0, 1, faultOpts{crash: 2, seed: 1})
	if err == nil {
		t.Error("crashing 2 of 3 nodes with 2 exempt endpoints should error")
	}
}

func TestRunBatchWithFaults(t *testing.T) {
	var buf bytes.Buffer
	o := batchOpts{runOpts: baseOpts(), trials: 4, concurrency: 2}
	o.faults = faultOpts{loss: 0.1, retry: 5, retryTimeout: 0.2, seed: 5}
	if err := runBatch(&buf, o); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^mean delivery ratio: ([01]\.\d{3})$`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no mean delivery ratio line:\n%s", buf.String())
	}
	if m[1] < "0.990" {
		t.Errorf("mean delivery ratio %s at p=0.1 with retries, want >= 0.990", m[1])
	}
}

func TestRunBatchIdealOmitsDeliveryLine(t *testing.T) {
	var buf bytes.Buffer
	o := batchOpts{runOpts: baseOpts(), trials: 2, concurrency: 1}
	if err := runBatch(&buf, o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "mean delivery ratio") {
		t.Errorf("ideal-channel batch printed a delivery line:\n%s", buf.String())
	}
}

func TestBuildNetworkRescalesEnergy(t *testing.T) {
	cfg := imobif.DefaultConfig()
	cfg.Nodes = 10
	net, err := buildNetwork(cfg, 1, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range net.Nodes() {
		if n.Joules < 100 || n.Joules > 200 {
			t.Errorf("node %d energy %v outside [100, 200]", n.ID, n.Joules)
		}
	}
}

func TestRunScenarioFile(t *testing.T) {
	if err := runScenario(io.Discard, "../../examples/scenarios/chain.json"); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioMissingFile(t *testing.T) {
	if err := runScenario(io.Discard, "/no/such/file.json"); err == nil {
		t.Error("missing scenario should error")
	}
}
