package main

import (
	"fmt"
	"os"

	"repro/internal/ioutilx"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
)

// runTelemetry owns the per-run observability state: one timeline per
// machine (sampled on the producer's event numbering, so serial and
// pipelined passes sample identical points) and the optional live
// endpoint. It is created only when -timeline or -metrics is in play.
type runTelemetry struct {
	interval    uint64
	normal, mig *telemetry.Timeline
	normalReg   *telemetry.Registry
	migReg      *telemetry.Registry
	live        *telhttp.Live
}

// timelineCapacity sizes the preallocated sample ring: enough for a
// typical run (budget/interval), clamped to something modest — the ring
// doubles on demand.
const timelineCapacity = 256

// newRunTelemetry builds the timelines over both machines' registries.
func newRunTelemetry(p *runParams, normal, mig *machine.Machine) (*runTelemetry, error) {
	if p.TimelineInterval == 0 {
		return nil, nil
	}
	nt, err := telemetry.NewTimeline(normal.Telemetry(), p.TimelineInterval, timelineCapacity)
	if err != nil {
		return nil, err
	}
	mt, err := telemetry.NewTimeline(mig.Telemetry(), p.TimelineInterval, timelineCapacity)
	if err != nil {
		return nil, err
	}
	return &runTelemetry{
		interval:  p.TimelineInterval,
		normal:    nt,
		mig:       mt,
		normalReg: normal.Telemetry(),
		migReg:    mig.Telemetry(),
		live:      p.live,
	}, nil
}

// boundary reports whether events is a sampling point.
func (rt *runTelemetry) boundary(events uint64) bool {
	return events != 0 && events%rt.interval == 0
}

// tickBoth is the serial pass's per-event hook: both machines sit
// at the same event, so both timelines sample together.
func (rt *runTelemetry) tickBoth(events uint64) {
	rt.normal.MaybeSample(events)
	rt.mig.MaybeSample(events)
	if rt.live != nil && rt.boundary(events) {
		rt.live.Publish("normal", rt.normalReg.Snapshot())
		rt.live.Publish("migration", rt.migReg.Snapshot())
	}
}

// tickMachine is the pipelined pass's hook, called on machine i's own
// goroutine (0 = normal, 1 = migration) at each boundary marker.
func (rt *runTelemetry) tickMachine(i int, events uint64) {
	tl, reg, name := rt.normal, rt.normalReg, "normal"
	if i == 1 {
		tl, reg, name = rt.mig, rt.migReg, "migration"
	}
	tl.MaybeSample(events)
	if rt.live != nil && rt.boundary(events) {
		rt.live.Publish(name, reg.Snapshot())
	}
}

// finish publishes the end-of-run values and returns the merged row
// stream: interval-ascending, normal before migration within an
// interval — the order the serial pass produces, so pipelined runs
// merge to byte-identical JSONL.
func (rt *runTelemetry) finish() []telemetry.Row {
	if rt == nil {
		return nil
	}
	if rt.live != nil {
		rt.live.Publish("normal", rt.normalReg.Snapshot())
		rt.live.Publish("migration", rt.migReg.Snapshot())
	}
	return telemetry.MergeRows(rt.normal.Rows("normal"), rt.mig.Rows("migration"))
}

// droppedRows sums both timelines' cap evictions, so the run report can
// account for the missing prefix of the merged stream.
func (rt *runTelemetry) droppedRows() uint64 {
	if rt == nil {
		return 0
	}
	return rt.normal.Dropped() + rt.mig.Dropped()
}

// writeTimeline writes rows as JSONL to path ("-" = stdout), with the
// drop-accounting footer when the ring cap evicted rows.
func writeTimeline(path string, rows []telemetry.Row, dropped uint64) (err error) {
	if path == "-" {
		return telemetry.WriteJSONLWithFooter(os.Stdout, rows, dropped)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer ioutilx.CloseKeeping(&err, f)
	return telemetry.WriteJSONLWithFooter(f, rows, dropped)
}

// serveMetrics binds addr and serves the live metrics endpoint in the
// background until the run's teardown shuts the returned Live down — so
// a finished run releases its port instead of leaking the listener for
// the life of the process. It returns the bound address (useful with
// ":0") and the publisher the run feeds.
func serveMetrics(addr string) (*telhttp.Live, string, error) {
	live := telhttp.NewLive()
	bound, err := live.Start(addr)
	if err != nil {
		return nil, "", fmt.Errorf("emsim: -metrics: %w", err)
	}
	return live, bound, nil
}
