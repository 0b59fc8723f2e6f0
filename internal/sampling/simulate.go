package sampling

import (
	"context"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/runner"
)

// MetricDef names one estimated metric and how to read it off a
// machine's stats.
type MetricDef struct {
	Machine string // "normal" | "migration"
	Name    string // a machine.Metric* constant
	Get     func(machine.Stats) uint64
}

// Metrics is the fixed set of per-interval metrics the sampler measures
// and reconstructs: the paper's headline miss counts for both machines
// plus the migration count. Order is part of the output contract
// (IntervalMeasure.Values and the estimate rows align to it).
var Metrics = []MetricDef{
	{"normal", machine.MetricIL1Misses, func(s machine.Stats) uint64 { return s.IL1Misses }},
	{"normal", machine.MetricDL1Misses, func(s machine.Stats) uint64 { return s.DL1Misses }},
	{"normal", machine.MetricL2Misses, func(s machine.Stats) uint64 { return s.L2Misses }},
	{"migration", machine.MetricIL1Misses, func(s machine.Stats) uint64 { return s.IL1Misses }},
	{"migration", machine.MetricDL1Misses, func(s machine.Stats) uint64 { return s.DL1Misses }},
	{"migration", machine.MetricL2Misses, func(s machine.Stats) uint64 { return s.L2Misses }},
	{"migration", machine.MetricMigrations, func(s machine.Stats) uint64 { return s.Migrations }},
}

// extract reads every metric into one vector.
func extract(normal, mig machine.Stats) []uint64 {
	v := make([]uint64, len(Metrics))
	for i, d := range Metrics {
		if d.Machine == "normal" {
			v[i] = d.Get(normal)
		} else {
			v[i] = d.Get(mig)
		}
	}
	return v
}

// Source replays the full deterministic event stream into sink. Chain
// jobs each call it afresh, so the stream must be reproducible: a
// workload generator or a recorded trace, never a live feed.
type Source func(sink mem.BatchSink) error

// SimConfig shapes the simulation pass.
type SimConfig struct {
	// Normal and Mig are the two machine configurations of the
	// experiment tee.
	Normal, Mig machine.Config
	// Policy and Topology are the normalized scenario names ("" for the
	// defaults); non-default policy state rides the warm-start
	// checkpoint's extension section exactly as emsim -checkpoint
	// writes it.
	Policy, Topology string
	// Workers sizes the chain worker pool (0 = all cores). Results
	// merge in chain order, so every worker count produces identical
	// output.
	Workers int
}

// IntervalMeasure is the full-fidelity measurement of one interval.
type IntervalMeasure struct {
	Interval int
	Cluster  int
	Role     string
	Events   uint64
	Instr    uint64
	// Values holds the per-interval metric deltas, aligned to Metrics.
	Values []uint64
}

// SimResult is the simulation pass's output.
type SimResult struct {
	// Measures come back ascending by interval index regardless of the
	// worker count.
	Measures []IntervalMeasure
	// DeliveredEvents counts events actually simulated (warmup + gaps +
	// measured intervals); the savings ratio is total/delivered.
	DeliveredEvents uint64
}

// stopChain is the panic sentinel that unwinds the source once a chain
// has delivered its last measured interval (generators cannot return
// early); runChain recovers it.
type stopChain struct{}

// chainSink numbers events exactly like emsim's checkpoint sink,
// discards the chain's fast-forward prefix, fires the boundary hook at
// each cut event, and aborts at the chain's end. Batches are delivered
// in sub-spans that never straddle a cut, so the batched and scalar
// delivery paths act at identical events. out is the chain's machine
// pair behind one shared L1 stage (a machine.FanOut); each warm start
// replaces it.
type chainSink struct {
	out    mem.BatchSink
	events uint64
	skip   uint64
	cuts   []uint64 // ascending, unique; the last cut is stopAt
	ci     int
	hook   func(event uint64)
	stopAt uint64

	// view is the reusable sub-batch header, so span splitting never
	// allocates.
	view mem.Batch
}

func (c *chainSink) boundary() {
	if c.ci < len(c.cuts) && c.events == c.cuts[c.ci] {
		c.hook(c.events)
		c.ci++
	}
	if c.events == c.stopAt {
		//emlint:allowpanic control-flow sentinel: generators cannot return early; recovered in runChain
		panic(stopChain{})
	}
}

func (c *chainSink) Access(addr mem.Addr, kind mem.Kind) {
	c.events++
	if c.events > c.skip {
		c.out.Access(addr, kind)
	}
	c.boundary()
}

func (c *chainSink) Instr(n uint64) {
	c.events++
	if c.events > c.skip {
		c.out.Instr(n)
	}
	c.boundary()
}

// AccessBatch implements mem.BatchSink: spans split at the skip edge
// and at every cut, with the hook running once per boundary exactly
// where the scalar path's per-event call would have fired.
//
//emlint:batchpair Access
//emlint:batchpair Instr
func (c *chainSink) AccessBatch(b *mem.Batch) {
	i, n := 0, b.Len()
	for i < n {
		if c.events < c.skip {
			d := c.skip - c.events
			if rem := uint64(n - i); d > rem {
				d = rem
			}
			c.events += d
			i += int(d)
			c.boundary()
			continue
		}
		span := uint64(n - i)
		if c.ci < len(c.cuts) {
			if next := c.cuts[c.ci] - c.events; next < span {
				span = next
			}
		}
		c.view.Addr = b.Addr[i : i+int(span)]
		c.view.Kind = b.Kind[i : i+int(span)]
		c.out.AccessBatch(&c.view)
		c.events += span
		i += int(span)
		c.boundary()
	}
}

var _ mem.BatchSink = (*chainSink)(nil)

// chainRun is the per-chain job state.
type chainRun struct {
	cfg       SimConfig
	intervals []Interval
	measured  []Measured // this chain's measured intervals, ascending
	normal    *machine.Machine
	mig       *machine.Machine
	sink      *chainSink

	mi       int      // next measured interval to open
	open     bool     // a measured interval is in flight
	base     []uint64 // metric vector at the open interval's start
	measures []IntervalMeasure
	err      error
}

// cutsFor returns the ascending unique boundary events of the chain:
// each measured interval's start and end.
func cutsFor(intervals []Interval, measured []Measured) []uint64 {
	var cuts []uint64
	for _, m := range measured {
		iv := intervals[m.Interval]
		if n := len(cuts); n == 0 || cuts[n-1] < iv.StartEvent {
			cuts = append(cuts, iv.StartEvent)
		}
		cuts = append(cuts, iv.EndEvent)
	}
	return cuts
}

// hook runs at each cut event: close the open measured interval and/or
// warm-start the next one through an EMCKPT1 snapshot round-trip.
func (r *chainRun) hook(event uint64) {
	if r.err != nil {
		return
	}
	if r.open && event == r.intervals[r.measured[r.mi].Interval].EndEvent {
		m := r.measured[r.mi]
		iv := r.intervals[m.Interval]
		cur := extract(r.normal.Stats, r.mig.Stats)
		for i := range cur {
			cur[i] -= r.base[i]
		}
		r.measures = append(r.measures, IntervalMeasure{
			Interval: m.Interval,
			Cluster:  m.Cluster,
			Role:     m.Role,
			Events:   iv.Events(),
			Instr:    iv.Instr,
			Values:   cur,
		})
		r.open = false
		r.mi++
	}
	if !r.open && r.mi < len(r.measured) && event == r.intervals[r.measured[r.mi].Interval].StartEvent {
		if err := r.warmStart(event); err != nil {
			r.err = err
			//emlint:allowpanic control-flow sentinel: generators cannot return early; recovered in runChain
			panic(stopChain{})
		}
		r.base = extract(r.normal.Stats, r.mig.Stats)
		r.open = true
	}
}

// warmStart replaces both machines with fresh ones restored from an
// EMCKPT1 round-trip of their own snapshots — the measured interval
// starts from checkpoint bytes, so the estimate inherits the resume
// path's bit-exactness guarantee (and its tests).
func (r *chainRun) warmStart(event uint64) error {
	ck := &machine.Checkpoint{Cores: r.cfg.Mig.Cores, Events: event}
	if err := machine.CaptureCheckpoint(ck, r.cfg.Policy, r.cfg.Topology, []*machine.Machine{r.normal, r.mig}, "normal", "migration"); err != nil {
		return err
	}
	ck, err := machine.RoundTripCheckpoint(ck)
	if err != nil {
		return err
	}
	normal, mig, fan, err := newPair(r.cfg)
	if err != nil {
		return err
	}
	if err := fan.Restore(ck, "normal", "migration"); err != nil {
		return err
	}
	r.normal, r.mig = normal, mig
	r.sink.out = fan
	return nil
}

// newPair builds the chain's two machines behind one shared L1 stage.
func newPair(cfg SimConfig) (normal, mig *machine.Machine, fan *machine.FanOut, err error) {
	if normal, err = machine.New(cfg.Normal); err != nil {
		return nil, nil, nil, err
	}
	if mig, err = machine.New(cfg.Mig); err != nil {
		return nil, nil, nil, err
	}
	fan, err = machine.NewFanOut(normal, mig)
	return normal, mig, fan, err
}

// runChain executes one chain: fast-forward, warmup, measure.
func runChain(src Source, intervals []Interval, plan Plan, chain Chain, cfg SimConfig) (res []IntervalMeasure, err error) {
	normal, mig, fan, err := newPair(cfg)
	if err != nil {
		return nil, err
	}
	measured := make([]Measured, len(chain.Measured))
	for i, mi := range chain.Measured {
		measured[i] = plan.Measured[mi]
	}
	run := &chainRun{cfg: cfg, intervals: intervals, measured: measured, normal: normal, mig: mig}
	sink := &chainSink{
		out:    fan,
		skip:   chain.SkipEvents,
		cuts:   cutsFor(intervals, measured),
		hook:   run.hook,
		stopAt: intervals[chain.LastInterval].EndEvent,
	}
	run.sink = sink

	stopped := func() (stopped bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopChain); ok {
					stopped = true
					return
				}
				//emlint:allowpanic re-raise of a foreign panic captured by the sentinel recover
				panic(r)
			}
		}()
		// A chain with no fast-forward measures its first interval from
		// event 0: that cut sits before the first delivered event, so it
		// fires here rather than from a sink call.
		sink.boundary()
		err = src(sink)
		return false
	}()
	if err != nil {
		return nil, err
	}
	if run.err != nil {
		return nil, run.err
	}
	if !stopped || len(run.measures) != len(measured) {
		return nil, fmt.Errorf("sampling: stream ended at event %d before chain [%d..%d] completed (%d/%d intervals measured)",
			sink.events, chain.FirstInterval, chain.LastInterval, len(run.measures), len(measured))
	}
	return run.measures, nil
}

// Simulate runs every chain of the plan over the worker pool and
// returns the per-interval measurements in interval order. Chains are
// independent jobs over the deterministic source, merged in index
// order, so the result is byte-identical for every worker count.
func Simulate(ctx context.Context, src Source, intervals []Interval, plan Plan, cfg SimConfig) (SimResult, error) {
	chains := plan.Chains
	results, err := runner.Map(ctx, len(chains), runner.Config{Workers: cfg.Workers},
		func(_ context.Context, i int) ([]IntervalMeasure, error) {
			return runChain(src, intervals, plan, chains[i], cfg)
		})
	if err != nil {
		return SimResult{}, err
	}
	var out SimResult
	for _, ms := range results {
		out.Measures = append(out.Measures, ms...)
	}
	out.DeliveredEvents = plan.DeliveredEvents(intervals)
	return out, nil
}
