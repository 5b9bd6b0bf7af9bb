package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The strategy-sweep workload is the paper-scale batch path of
// imobif-figures: experiments.RunStrategyComparisonCtx on
// ParamsStrategies — every registered strategy under the zero-fault and
// the loss-0.1 (retry + repair) regimes, on paired 100-node instances —
// with two sweep workers. One batch is one comparison of
// sweepFlowsPerCell trials per cell; a run repeats the batch once per
// sweepBatchSeconds of the requested time, at least sweepMinBatches
// times, and reports the fastest repetition.
//
// The batch's instances are the same at every seed: a trial's cost
// varies several-fold with its instance, and a run holds too few
// instances for that to average out, so trials per second measured on
// seed-drawn instances moved with the seed while the code stood still.
// The seed picks the instances of the untimed warm-up comparisons.
const (
	sweepFlowsPerCell = 20
	sweepWorkers      = 2
	// sweepBatchSeconds is a batch's nominal wall time on a 2-CPU host.
	sweepBatchSeconds = 5
	sweepMinBatches   = 3
	// sweepInstanceSeed derives the batch's instances.
	sweepInstanceSeed = 1
	// sweepWarmup is how long untimed warm-up comparisons of
	// sweepWarmupFlows trials per cell run before the timed region.
	sweepWarmup      = 3 * time.Second
	sweepWarmupFlows = 4
	// sweepSetups is how many set-ups the reported time is the median
	// of, after sweepWarmups untimed ones that absorb first-use costs.
	sweepSetups  = 31
	sweepWarmups = 5
)

// sweepDigest is the SHA-256 of the batch's marshaled cells.
// Behaviour-preserving changes keep it.
const sweepDigest = "6d8772cd8b29fdaa772b7d44594071a24838a3269e0792def95fca381feb0dd0"

// sweepWorkload carries the cells the untraced pass produced to the
// traced replay that must reproduce them.
type sweepWorkload struct {
	cells []byte // marshaled cells
}

// batchParams are the comparison parameters of the batch.
func batchParams() experiments.Params {
	p := experiments.ParamsStrategies()
	p.Seed = sweepInstanceSeed
	p.Flows = sweepFlowsPerCell
	p.Concurrency = sweepWorkers
	return p
}

// strategyFor materializes a registered strategy the way the comparison
// does: through the registry, with the sweep's radio and locomotion
// environment and default parameters.
func strategyFor(p experiments.Params, name string) (mobility.Strategy, error) {
	table, err := energy.NewPowerTable(p.Tx, p.Range, 256)
	if err != nil {
		return nil, err
	}
	return mobility.New(name, mobility.Env{
		Tx: p.Tx, Range: p.Range, Table: table,
		Mobility: energy.MobilityModel{K: p.K},
	}, nil)
}

// sweepSetup is the work before the measured region: every registered
// strategy materialized through the registry, and the batch's paired
// Monte-Carlo instances drawn (which also proves them routable).
func sweepSetup(p experiments.Params) (time.Duration, error) {
	t0 := time.Now()
	for _, name := range mobility.Names() {
		if _, err := strategyFor(p, name); err != nil {
			return 0, err
		}
	}
	if _, err := experiments.GenInstances(p); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// checkCells validates one batch's cells: the full strategy × regime
// grid, finite means, ratios within [0, 1].
func checkCells(cells []experiments.StrategyCell) error {
	want := len(mobility.Names()) * len(experiments.StrategyRegimes())
	if len(cells) != want {
		return fmt.Errorf("%d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		for _, v := range []float64{c.TotalJ, c.TxJ, c.MoveJ, c.Lifetime, c.MeanResidual} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("cell %s/%s has a bad mean %v", c.Strategy, c.Regime, v)
			}
		}
		if c.DeliveryRatio < 0 || c.DeliveryRatio > 1 || c.Completed < 0 || c.Completed > 1 {
			return fmt.Errorf("cell %s/%s has a ratio outside [0, 1]", c.Strategy, c.Regime)
		}
	}
	return nil
}

// digestHex is the hex SHA-256 of b.
func digestHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepBatches is the number of batches a run of the given length holds.
func sweepBatches(seconds float64) int {
	return max(sweepMinBatches, int(math.Round(seconds/sweepBatchSeconds)))
}

// measure times the set-ups and then the batch's repetitions, after
// untimed warm-up comparisons on seed-drawn instances. Every repetition is the same
// deterministic work, which contention from the rest of the host can
// only slow down, so the reported rate is the fastest repetition's.
func (sw *sweepWorkload) measure(o options) (*report, error) {
	rep := newReport()
	p := batchParams()
	warm := p
	warm.Flows = sweepWarmupFlows
	for i, t0 := int64(0), time.Now(); time.Since(t0) < sweepWarmup; i++ {
		warm.Seed = int64(sweep.DeriveSeed(o.seed, uint64(i)))
		if _, err := experiments.RunStrategyComparisonCtx(context.Background(), warm); err != nil {
			return nil, fmt.Errorf("strategy-sweep warm-up: %w", err)
		}
	}
	var setups []float64
	for i := 0; i < sweepWarmups+sweepSetups; i++ {
		d, err := sweepSetup(p)
		if err != nil {
			return nil, fmt.Errorf("strategy-sweep set-up: %w", err)
		}
		if i >= sweepWarmups {
			setups = append(setups, d.Seconds())
		}
	}

	runtime.GC()
	var times []float64
	trials := 0
	hs := startHeapSampler()
	for b := 0; b < sweepBatches(o.seconds); b++ {
		t0 := time.Now()
		res, err := experiments.RunStrategyComparisonCtx(context.Background(), p)
		el := time.Since(t0)
		n := len(mobility.Names()) * len(experiments.StrategyRegimes()) * p.Flows
		rep.attempted += n
		var cells []byte
		if err == nil {
			cells, err = json.Marshal(res.Cells)
		}
		if err == nil {
			err = checkCells(res.Cells)
		}
		if err == nil && digestHex(cells) != sweepDigest {
			err = fmt.Errorf("cells digest %s differs from the recorded %s", digestHex(cells), sweepDigest)
		}
		if err != nil {
			rep.failed += n - 1
			rep.fail("batch %d: %v", b, err)
			continue
		}
		sw.cells = cells
		times = append(times, el.Seconds())
		trials = res.Sweep.Trials
		rep.notef("batch %d: %d trials in %.3fs (%.1f trials/s), cells %s",
			b, res.Sweep.Trials, el.Seconds(), float64(res.Sweep.Trials)/el.Seconds(), digestHex(cells))
	}
	heap := hs.stop()
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["work_per_s"] = 0
	if len(times) > 0 {
		rep.e2e["work_per_s"] = float64(trials) / slices.Min(times)
		rep.named = []namedMetric{
			{"trials_per_s", "1/s", rep.e2e["work_per_s"]},
			{"trials_per_s_median", "1/s", float64(trials) / median(times)},
			{"trials", "count", float64(trials * len(times))},
		}
	}
	rep.setHeap(heap)
	return rep, nil
}

// sameCells reports whether replayed cells marshal to the comparison's
// bytes.
func sameCells(cells []experiments.StrategyCell, want []byte) error {
	got, err := json.Marshal(cells)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replayed cells %s differ from the comparison's %s", digestHex(got)[:16], digestHex(want)[:16])
	}
	return nil
}

// countSink counts the strategy decisions a world reports: relay moves
// and destination notifications that flip mobility on or off.
type countSink struct{ moves, notifications int64 }

// Record implements trace.Sink.
func (c *countSink) Record(e trace.Event) {
	switch e.Kind {
	case trace.KindNodeMoved:
		c.moves++
	case trace.KindNotification:
		c.notifications++
	}
}

// trialRow is one replayed trial's contribution to its cell, computed
// exactly as the comparison computes it.
type trialRow struct {
	totalJ, txJ, moveJ, delivery, completed, lifetime, residual float64
}

// trialCounters are the work counters a replayed trial's result carries.
type trialCounters struct {
	res  netsim.Result
	sink countSink
}

// replayTrial re-runs one trial of one cell through the exported entry
// points — GenInstance, NewWorld, AddFlow, RunContext — with spans around
// each, mirroring the comparison's per-trial recipe: the trial's shared
// instance, the regime's fault seed derived per trial, and the route
// planned by the world with its strategy's planner.
func replayTrial(ctx context.Context, rec *recorder, parent int, p experiments.Params, strat mobility.Strategy, trial int) (trialRow, trialCounters, error) {
	sp := rec.begin("sweep.trial", parent, int64(trial))
	defer rec.end(sp)
	s := rec.begin("experiments.gen_instance", sp, int64(trial))
	inst, err := experiments.GenInstance(p, trial)
	rec.end(s)
	if err != nil {
		return trialRow{}, trialCounters{}, err
	}
	cfg := netsim.DefaultConfig()
	cfg.Radio = radio.Config{Tx: p.Tx, Range: p.Range, ChargeControl: p.ChargeControl}
	cfg.Mobility = energy.MobilityModel{K: p.K}
	cfg.Strategy = strat
	cfg.Mode = netsim.ModeInformed
	cfg.MaxStep = p.MaxStep
	cfg.EstimateScale = p.EstimateScale
	cfg.StopOnFirstDeath = p.StopOnFirstDeath
	cfg.Motion = p.Motion
	if p.Planner != nil {
		cfg.Planner = p.Planner
	}
	if p.Faults != nil {
		fc := *p.Faults
		fc.Seed = int64(sweep.DeriveSeed(fc.Seed, uint64(trial)))
		cfg.Faults = &fc
	}
	var tc trialCounters
	if rec != nil {
		cfg.Sink = &tc.sink
	}
	s = rec.begin("netsim.new_world", sp, int64(trial))
	w, err := netsim.NewWorld(cfg, inst.Positions, inst.Energies)
	if err == nil {
		_, err = w.AddFlow(netsim.FlowSpec{Src: inst.Src, Dst: inst.Dst, LengthBits: inst.FlowBits})
	}
	rec.end(s)
	if err != nil {
		return trialRow{}, tc, err
	}
	s = rec.begin("netsim.run", sp, int64(trial))
	res, err := w.RunContext(ctx)
	rec.end(s)
	if err != nil {
		return trialRow{}, tc, err
	}
	tc.res = res
	out := res.Outcome()
	row := trialRow{
		totalJ:   res.Energy.Total(),
		txJ:      res.Energy.Tx,
		moveJ:    res.Energy.Move,
		delivery: out.DeliveryRatio(),
		lifetime: float64(out.Lifetime()),
	}
	if out.Completed {
		row.completed = 1
	}
	if n := len(res.Final.Nodes); n > 0 {
		row.residual = res.Final.TotalResidual() / float64(n)
	}
	return row, tc, nil
}

// replayBatch replays every cell of the batch through sweep.Map, with b
// as the spans' request id, and returns the cells, the trials' counters
// and the sweep.Map wall time.
func replayBatch(rec *recorder, p experiments.Params, b int) ([]experiments.StrategyCell, []trialCounters, time.Duration, error) {
	names := mobility.Names()
	sort.Strings(names)
	root := rec.begin("sweep.batch", 0, int64(b))
	defer rec.end(root)
	var cells []experiments.StrategyCell
	var counters []trialCounters
	var mapWall time.Duration
	for _, reg := range experiments.StrategyRegimes() {
		for _, name := range names {
			pc := p
			pc.StrategyName = name
			pc.Faults = reg.Faults
			strat, err := strategyFor(pc, name)
			if err != nil {
				return nil, nil, 0, err
			}
			cellSpan := rec.begin("sweep.cell", root, int64(b))
			var mu sync.Mutex
			t0 := time.Now()
			rows, _, err := sweep.Map(context.Background(), sweep.Runner{Concurrency: pc.Concurrency}, pc.Flows,
				func(ctx context.Context, trial int) (trialRow, error) {
					row, tc, err := replayTrial(ctx, rec, cellSpan, pc, strat, trial)
					mu.Lock()
					counters = append(counters, tc)
					mu.Unlock()
					return row, err
				})
			mapWall += time.Since(t0)
			rec.end(cellSpan)
			if err != nil {
				return nil, nil, 0, err
			}
			col := func(f func(trialRow) float64) float64 {
				xs := make([]float64, len(rows))
				for i, r := range rows {
					xs[i] = f(r)
				}
				return stats.Mean(xs)
			}
			cells = append(cells, experiments.StrategyCell{
				Strategy:      name,
				Regime:        reg.Name,
				TotalJ:        col(func(r trialRow) float64 { return r.totalJ }),
				TxJ:           col(func(r trialRow) float64 { return r.txJ }),
				MoveJ:         col(func(r trialRow) float64 { return r.moveJ }),
				DeliveryRatio: col(func(r trialRow) float64 { return r.delivery }),
				Completed:     col(func(r trialRow) float64 { return r.completed }),
				Lifetime:      col(func(r trialRow) float64 { return r.lifetime }),
				MeanResidual:  col(func(r trialRow) float64 { return r.residual }),
			})
		}
	}
	return cells, counters, mapWall, nil
}

// trace replays the batch once with spans, a counting sink, a CPU
// profile and MemStats deltas, and checks the replayed cells equal the
// comparison's.
func (sw *sweepWorkload) trace(o options, rec *recorder) (*report, error) {
	rep := newReport()
	runtime.GC()
	mem0 := memMark()
	prof, err := startCPU()
	if err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	var wall, mapWall time.Duration
	var all []trialCounters
	if sw.cells != nil { // nil when every batch failed in the untraced pass, counted there
		p := batchParams()
		t0 := time.Now()
		cells, counters, mw, err := replayBatch(rec, p, 0)
		wall, mapWall = time.Since(t0), mw
		n := len(mobility.Names()) * len(experiments.StrategyRegimes()) * p.Flows
		rep.attempted += n
		if err == nil {
			err = sameCells(cells, sw.cells)
		}
		if err != nil {
			rep.failed += n - 1
			rep.fail("traced replay: %v", err)
		} else {
			all = counters
		}
	}
	cpu, perr := prof.stop()
	heap := hs.stop()
	mem := since(mem0)
	if perr != nil {
		return nil, perr
	}

	if wall > 0 {
		rep.e2e["work_per_s"] = float64(len(all)) / wall.Seconds()
	}
	rep.setHeap(heap)
	agg := byName(rec.closed())
	L := rep.layers
	for _, sm := range [][2]string{
		{"experiments.gen_instance", "experiments.gen_instance"},
		{"netsim.new_world", "netsim.new_world"},
		{"netsim.run", "netsim.trial_run"},
		{"sweep.trial", "sweep.trial"},
	} {
		span, metric := sm[0], sm[1]
		if st := agg[span]; st != nil {
			d := summarize(st.Durs)
			addDist(L, metric, "ms", d)
			rep.notes = append(rep.notes, distNote(metric, "ms", d))
		}
	}
	if st := agg["sweep.trial"]; st != nil && mapWall > 0 {
		L["sweep.busy_frac"] = st.Total.Seconds() / (float64(sweepWorkers) * mapWall.Seconds())
	}
	var usefulHops, unicasts float64
	packetBits := netsim.DefaultConfig().PacketBits
	for _, tc := range all {
		r := tc.res
		L["netsim.retransmits"] += float64(r.Transport.Retransmits)
		L["netsim.route_repairs"] += float64(r.Transport.RouteRepairs)
		L["netsim.link_breaks"] += float64(r.Transport.LinkBreaks)
		L["fault.drops"] += float64(r.Faults.Dropped)
		L["radio.broadcasts"] += float64(r.Medium.Broadcasts)
		L["radio.unicasts"] += float64(r.Medium.Unicasts)
		L["radio.delivered"] += float64(r.Medium.Delivered)
		L["trace.moves"] += float64(tc.sink.moves)
		L["trace.notifications"] += float64(tc.sink.notifications)
		unicasts += float64(r.Medium.Unicasts)
		for _, f := range r.Flows {
			if f.PathLen > 1 {
				usefulHops += f.DeliveredBits / packetBits * float64(f.PathLen-1)
			}
		}
	}
	if unicasts > 0 {
		L["netsim.useful_tx_frac"] = usefulHops / unicasts
	}
	addCPU(L, "", cpu)
	L["runtime.alloc_mb"] = mem.AllocMB
	L["runtime.gc_cycles"] = mem.GCCycles
	rep.notef("replay CPU by layer: %s", topLayers(cpu, 10))
	rep.notes = append(rep.notes, spanTable(agg)...)
	return rep, nil
}
