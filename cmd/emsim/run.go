package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/telemetry"
	"repro/internal/telemetry/telhttp"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// runParams describes one simulation run. Both machines (the 1-core
// baseline and the N-core migration configuration) are driven in a
// single pass over the input through one shared L1 stage, so a
// checkpoint captures them at the same event and a resumed run replays
// the identical stream to both.
type runParams struct {
	Workload string
	Instr    uint64
	Cores    int
	Replay   string // drive from this trace file instead of a workload

	// Policy and Topology select the migration scenario. validate
	// normalizes them: the Michaud default and the uniform chip become
	// "", so spelling out a default is indistinguishable from omitting
	// it (same report, same JSON bytes, same checkpoint bytes).
	Policy   string
	Topology string

	// Scalar selects the legacy per-reference delivery path instead of
	// the columnar batch path (the -scalar escape hatch, kept for
	// differential testing — the two paths must produce byte-identical
	// output).
	Scalar bool

	// Workers selects how the two machines consume the one filtered
	// stream: 1 = serially on the generating goroutine; 0 (all cores)
	// or more = pipelined, each machine on its own goroutine behind the
	// generator and L1 stage. Checkpointing, resuming and -scalar force
	// the serial path regardless (a checkpoint must capture both
	// machines at the same event).
	Workers int

	Checkpoint      string // checkpoint file path ("" = no checkpointing)
	CheckpointEvery uint64 // events between periodic checkpoints (0 = only on interrupt)
	Resume          string // resume from this checkpoint file

	// TimelineInterval, when positive, samples every machine metric at
	// each multiple of this event count; the samples come back as
	// runResult.Timeline. Serial and pipelined runs number events on
	// the one producer, so the rows are byte-identical for every worker
	// count.
	TimelineInterval uint64
	// live, when non-nil, receives metric snapshots at every timeline
	// boundary (the -metrics endpoint).
	live *telhttp.Live

	// stop, when it becomes true mid-run, aborts the pass at the next
	// event boundary (the SIGINT path). A final checkpoint is written if
	// Checkpoint is set.
	stop *atomic.Bool
	// stopAfter aborts after exactly this many events — the test hook
	// that simulates an interrupt at a deterministic point. 0 = never.
	stopAfter uint64
	// workload, when non-nil, is driven instead of a fresh instance of
	// the named Workload — the test hook for generator failures.
	workload workloads.Workload
}

// validate rejects malformed parameter combinations up front, before
// any machine is built (satellite: flag validation — a bad -cores used
// to survive until a panic deep inside the migration controller).
func (p *runParams) validate() error {
	switch p.Cores {
	case 2, 4, 8:
	default:
		return fmt.Errorf("emsim: -cores must be 2, 4 or 8, got %d", p.Cores)
	}
	cfg, err := machine.MigrationConfigScenario(p.Cores, p.Policy, p.Topology)
	if err != nil {
		return fmt.Errorf("emsim: %w", err)
	}
	// Write the normalized spelling back so every downstream consumer
	// (report header, -json encoder, checkpoint extension) sees "" for
	// the defaults.
	p.Policy = cfg.Policy
	p.Topology = ""
	if cfg.Topology != nil {
		p.Topology = cfg.Topology.Name
	}
	if p.Replay == "" {
		if _, err := suite.Registry().New(p.Workload); err != nil {
			return err
		}
	}
	return nil
}

// runResult is what one pass produces.
type runResult struct {
	Normal, Mig machine.Stats
	Events      uint64
	Interrupted bool
	Resumed     uint64 // events skipped during resume fast-forward (0 = fresh run)

	// Timeline holds the interval samples of both machines, merged into
	// the deterministic output order (present only with
	// runParams.TimelineInterval set). TimelineDropped counts the oldest
	// rows the hard ring cap evicted before the surviving ones.
	Timeline        []telemetry.Row
	TimelineDropped uint64
}

// stopRun is the panic sentinel ckptSink throws to unwind out of a
// workload generator mid-stream; drive recovers it.
type stopRun struct{}

// scalarTee delivers the -scalar path's per-record calls to both
// machines, which keep private L1s: the scalar oracle never goes
// through an L1 stage.
type scalarTee struct{ a, b *machine.Machine }

func (t scalarTee) Access(addr mem.Addr, kind mem.Kind) {
	t.a.Access(addr, kind)
	t.b.Access(addr, kind)
}

func (t scalarTee) Instr(n uint64) {
	t.a.Instr(n)
	t.b.Instr(n)
}

// AccessBatch implements mem.BatchSink record by record; scalar drives
// never batch, so this only completes the interface.
func (t scalarTee) AccessBatch(b *mem.Batch) { mem.DeliverBatch(b, t) }

// ckptSink numbers events, discards the resume prefix, triggers
// periodic checkpoints, and aborts on a stop request. Workload
// generators cannot return early, so the abort is a panic(stopRun{})
// recovered in drive.
type ckptSink struct {
	inner  mem.BatchSink
	events uint64 // events seen, including the skipped resume prefix
	skip   uint64 // resume fast-forward: discard the first skip events
	every  uint64
	save   func(events uint64)
	tick   func(events uint64) // timeline sampling hook, nil when disabled
	// tickEvery is the timeline interval behind tick. The batch path
	// needs it explicitly: tick's only effects happen at multiples of the
	// interval, so AccessBatch splits deliveries exactly there and calls
	// tick once per span instead of once per event.
	tickEvery uint64
	stop      *atomic.Bool
	after     uint64

	// view is the reusable sub-batch header AccessBatch delivers spans
	// through, so boundary splitting never allocates.
	view mem.Batch
}

// Access and Instr inline the shared per-event bookkeeping instead of
// delegating through a step(func()) helper: the closure that would
// capture addr/kind costs an allocation per event on the hot path.
// tick runs inside the events > skip branch (resume fast-forward must
// not sample discarded events) and before checkStop, so an interrupted
// run keeps every sample up to the stop point.

func (c *ckptSink) Access(addr mem.Addr, kind mem.Kind) {
	c.events++
	if c.events > c.skip {
		c.inner.Access(addr, kind)
		if c.tick != nil {
			c.tick(c.events)
		}
		if c.every > 0 && c.save != nil && c.events%c.every == 0 {
			c.save(c.events)
		}
	}
	c.checkStop()
}

func (c *ckptSink) Instr(n uint64) {
	c.events++
	if c.events > c.skip {
		c.inner.Instr(n)
		if c.tick != nil {
			c.tick(c.events)
		}
		if c.every > 0 && c.save != nil && c.events%c.every == 0 {
			c.save(c.events)
		}
	}
	c.checkStop()
}

func (c *ckptSink) checkStop() {
	if (c.stop != nil && c.stop.Load()) || (c.after > 0 && c.events == c.after) {
		panic(stopRun{})
	}
}

// AccessBatch implements mem.BatchSink: the batched counterpart of
// Access/Instr. Per-event bookkeeping collapses into span arithmetic —
// a batch is delivered in sub-spans that never straddle an event
// boundary where the scalar path would do something (a timeline tick, a
// periodic checkpoint, the -stop-after event, the resume fast-forward
// edge), and the hook runs once at each boundary, exactly where the
// scalar path's per-event call would have had an effect. Everything in
// between is a straight slice handoff to the machine's batch kernel.
func (c *ckptSink) AccessBatch(b *mem.Batch) {
	i, n := 0, b.Len()
	for i < n {
		if c.events < c.skip {
			// Resume fast-forward: discard without delivering. The
			// -stop-after hook can land inside the discarded prefix and
			// must still stop at its exact event.
			d := c.skip - c.events
			if rem := uint64(n - i); d > rem {
				d = rem
			}
			if c.after > c.events && c.after <= c.events+d {
				c.events = c.after
				panic(stopRun{})
			}
			c.events += d
			i += int(d)
			if c.stop != nil && c.stop.Load() {
				panic(stopRun{})
			}
			continue
		}
		span := uint64(n - i)
		if c.tick != nil && c.tickEvery > 0 {
			if next := c.tickEvery - c.events%c.tickEvery; next < span {
				span = next
			}
		}
		if c.every > 0 && c.save != nil {
			if next := c.every - c.events%c.every; next < span {
				span = next
			}
		}
		if c.after > c.events {
			if next := c.after - c.events; next < span {
				span = next
			}
		}
		c.view.Addr = b.Addr[i : i+int(span)]
		c.view.Kind = b.Kind[i : i+int(span)]
		c.inner.AccessBatch(&c.view)
		c.events += span
		i += int(span)
		if c.tick != nil {
			c.tick(c.events)
		}
		if c.every > 0 && c.save != nil && c.events%c.every == 0 {
			c.save(c.events)
		}
		c.checkStop()
	}
}

// drive pushes the run's input into sink, converting a stopRun panic
// into interrupted=true. The default path is batched: traces stream
// through trace.BatchReader's zero-copy decoder and workloads through a
// mem.Batcher, with sink.AccessBatch handling every event boundary. The
// -scalar escape hatch replays the legacy one-call-per-record path.
func drive(p runParams, sink *ckptSink) (interrupted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopRun); ok {
				interrupted = true
				return
			}
			panic(r)
		}
	}()
	if p.Replay != "" {
		f, err := os.Open(p.Replay)
		if err != nil {
			return false, err
		}
		defer f.Close()
		if p.Scalar {
			tr, err := trace.NewReader(f)
			if err != nil {
				return false, err
			}
			if _, err := tr.Replay(sink); err != nil {
				return false, err
			}
			return false, nil
		}
		tr, err := trace.NewBatchReader(f)
		if err != nil {
			return false, err
		}
		if _, err := tr.ReplayBatches(sink, nil); err != nil {
			return false, err
		}
		return false, nil
	}
	w := p.workload
	if w == nil {
		if w, err = suite.Registry().New(p.Workload); err != nil {
			return false, err
		}
	}
	if p.Scalar {
		w.Run(sink, p.Instr)
		return false, nil
	}
	ba := mem.NewBatcher(sink, 0)
	w.Run(ba, p.Instr)
	ba.Flush()
	return false, nil
}

// run executes one simulation pass (or resumes one) and returns the
// final stats of both machines. When resuming, p's run-shaping fields
// are overwritten from the checkpoint, so the caller's report sees the
// effective parameters.
func run(p *runParams) (*runResult, error) {
	var resumeCk *machine.Checkpoint
	if p.Resume != "" {
		ck, err := machine.LoadCheckpoint(p.Resume)
		if err != nil {
			return nil, err
		}
		// The checkpoint is authoritative about the run it belongs to:
		// flags that shaped the original pass are restored from it —
		// including the policy scenario, which rides the checkpoint
		// extension (absent for default Michaud-on-uniform runs).
		p.Workload, p.Replay, p.Instr, p.Cores = ck.Workload, ck.Replay, ck.Instr, ck.Cores
		p.Policy, p.Topology = "", ""
		if ext := ck.Ext(); ext != nil {
			p.Policy, p.Topology = ext.Policy, ext.Topology
		}
		resumeCk = ck
	}
	if err := p.validate(); err != nil {
		return nil, err
	}

	normal, err := machine.New(machine.NormalConfig())
	if err != nil {
		return nil, err
	}
	migCfg, err := machine.MigrationConfigScenario(p.Cores, p.Policy, p.Topology)
	if err != nil {
		return nil, err
	}
	mig, err := machine.New(migCfg)
	if err != nil {
		return nil, err
	}
	tel, err := newRunTelemetry(p, normal, mig)
	if err != nil {
		return nil, err
	}

	// -scalar keeps private L1s and per-record delivery (the oracle);
	// every other run filters the stream once through a shared stage.
	var fan *machine.FanOut
	var inner mem.BatchSink = scalarTee{a: normal, b: mig}
	if !p.Scalar {
		if fan, err = machine.NewFanOut(normal, mig); err != nil {
			return nil, err
		}
		inner = fan
	}

	var skip uint64
	if resumeCk != nil {
		if fan != nil {
			err = fan.Restore(resumeCk, "normal", "migration")
		} else {
			err = machine.RestoreCheckpoint(resumeCk, []*machine.Machine{normal, mig}, "normal", "migration")
		}
		if err != nil {
			return nil, fmt.Errorf("emsim: %w", err)
		}
		skip = resumeCk.Events
	}

	var saveErr error
	save := func(events uint64) {
		if p.Checkpoint == "" {
			return
		}
		ck := &machine.Checkpoint{Workload: p.Workload, Replay: p.Replay, Instr: p.Instr, Cores: p.Cores, Events: events}
		err := machine.CaptureCheckpoint(ck, p.Policy, p.Topology, []*machine.Machine{normal, mig}, "normal", "migration")
		if err == nil {
			err = machine.SaveCheckpoint(p.Checkpoint, ck)
		}
		if err != nil && saveErr == nil {
			saveErr = err
		}
	}

	sink := &ckptSink{
		inner: inner,
		skip:  skip,
		every: p.CheckpointEvery,
		save:  save,
		stop:  p.stop,
		after: p.stopAfter,
	}
	if tel != nil {
		sink.tick = tel.tickBoth
		sink.tickEvery = tel.interval
	}
	var pipe *machine.Pipeline
	if fan != nil && p.Checkpoint == "" && resumeCk == nil && workers(p.Workers) > 1 {
		// Pipelined: this goroutine generates and filters, each machine
		// consumes on its own goroutine. Timeline boundaries travel down
		// the ring as markers, so each machine samples itself at the
		// producer's event numbers.
		var tick func(int, uint64)
		if tel != nil {
			tick = tel.tickMachine
			sink.tick = func(events uint64) {
				if tel.boundary(events) {
					pipe.Tick(events)
				}
			}
		}
		pipe = fan.Pipeline(tick)
		sink.inner = pipe
	}
	interrupted, err := func() (bool, error) {
		if pipe != nil {
			// Also on a generator panic: drain the ring and stop every
			// machine goroutine before the panic leaves run.
			defer pipe.Close()
		}
		return drive(*p, sink)
	}()
	if err != nil {
		return nil, err
	}
	if saveErr != nil {
		return nil, fmt.Errorf("emsim: checkpointing failed: %w", saveErr)
	}
	if interrupted {
		// An interrupt during resume fast-forward leaves the machines
		// still at the restored event count, not at sink.events.
		ev := sink.events
		if ev < skip {
			ev = skip
		}
		save(ev)
		if saveErr != nil {
			return nil, fmt.Errorf("emsim: final checkpoint failed: %w", saveErr)
		}
	}
	return &runResult{
		Normal:      normal.FinalStats(),
		Mig:         mig.FinalStats(),
		Events:      sink.events,
		Interrupted: interrupted,
		Resumed:     skip,
		Timeline:    tel.finish(),

		TimelineDropped: tel.droppedRows(),
	}, nil
}

// workers resolves a -j value: 0 means every available core.
func workers(j int) int {
	if j == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return j
}
