package service

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/workloads/suite"
)

// The job bodies below reproduce the emsim CLI's serial pass exactly —
// same machine construction, same shared L1 stage, same event
// numbering — which is what the byte-identity e2e contract rests on: a
// /run response must equal `emsim -json` for the same parameters,
// whether it was computed here or served from the cache.

// stopJob is the panic sentinel that unwinds a workload generator when
// the job's context ends mid-stream (generators cannot return early);
// driveJob recovers it.
type stopJob struct{}

// jobSink numbers the events of one stream, delivers them to the job's
// machines through out (a machine.FanOut), and aborts when the job's
// stop flag flips (context deadline or drain). skip is the resume
// fast-forward: the first skip events are counted but not delivered,
// exactly as emsim's ckptSink does it, so a recovered job replays the
// deterministic input from the checkpointed event onward and finishes
// byte-identical to an uninterrupted run.
type jobSink struct {
	out    mem.BatchSink
	events uint64 // events seen, including the skipped resume prefix
	skip   uint64
	stop   *atomic.Bool

	// view is the reusable sub-batch header AccessBatch delivers spans
	// through, so skip-boundary splitting never allocates.
	view mem.Batch
}

func (j *jobSink) Access(addr mem.Addr, kind mem.Kind) {
	j.events++
	if j.events > j.skip {
		j.out.Access(addr, kind)
	}
	j.checkStop()
}

func (j *jobSink) Instr(n uint64) {
	j.events++
	if j.events > j.skip {
		j.out.Instr(n)
	}
	j.checkStop()
}

func (j *jobSink) checkStop() {
	if j.stop.Load() {
		//emlint:allowpanic control-flow sentinel: generators cannot return early; recovered in driveJob
		panic(stopJob{})
	}
}

// AccessBatch implements mem.BatchSink: the columnar delivery path of a
// job. Only the resume fast-forward edge splits a batch — everything
// past it streams straight into the fan-out. The stop flag is checked
// per batch instead of per event; stops are asynchronous (deadline or
// drain), so the only effect is that a cancelled job runs on for at
// most one batch before spooling.
//
//emlint:batchpair Access
//emlint:batchpair Instr
func (j *jobSink) AccessBatch(b *mem.Batch) {
	i, n := 0, b.Len()
	for i < n {
		if j.events < j.skip {
			d := j.skip - j.events
			if rem := uint64(n - i); d > rem {
				d = rem
			}
			j.events += d
			i += int(d)
		} else {
			j.view.Addr = b.Addr[i:n]
			j.view.Kind = b.Kind[i:n]
			j.out.AccessBatch(&j.view)
			j.events += uint64(n - i)
			i = n
		}
		j.checkStop()
	}
}

// driveJob pushes the workload into sink through the columnar batch
// path, converting a stopJob panic into interrupted=true.
func driveJob(workload string, instr uint64, sink mem.BatchSink) (interrupted bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopJob); ok {
				interrupted = true
				return
			}
			//emlint:allowpanic re-raise of a foreign panic captured by the sentinel recover
			panic(r)
		}
	}()
	w, err := suite.Registry().New(workload)
	if err != nil {
		return false, err
	}
	ba := mem.NewBatcher(sink, 0)
	w.Run(ba, instr)
	ba.Flush()
	return false, nil
}

// runJob executes one cold /run request on the calling goroutine (the
// caller already holds a worker slot). A cancelled job discards its
// partial stats; when drain caused the cancellation and a spool
// directory is configured, the partial machines are checkpointed first
// so the work is resumable with `emsim -resume`.
func (s *Service) runJob(ctx context.Context, spec RunSpec) ([]byte, error) {
	if len(spec.Programs) > 0 {
		return s.multiJob(ctx, spec)
	}
	if spec.Sample {
		return s.sampleJob(ctx, spec)
	}
	normal, err := machine.New(machine.NormalConfig())
	if err != nil {
		return nil, err
	}
	migCfg, err := machine.MigrationConfigScenario(spec.Cores, spec.Policy, spec.Topology)
	if err != nil {
		return nil, &BadRequestError{err}
	}
	mig, err := machine.New(migCfg)
	if err != nil {
		return nil, err
	}
	fan, err := machine.NewFanOut(normal, mig)
	if err != nil {
		return nil, err
	}

	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	stop, releaseStop := runner.StopWhenDone(jobCtx)
	defer releaseStop()

	sink := &jobSink{out: fan, stop: stop}
	interrupted, err := driveJob(spec.Workload, spec.Instr, sink)
	if err != nil {
		return nil, err
	}
	if interrupted {
		ckpt := ""
		if s.jobsCtx.Err() != nil && s.cfg.SpoolDir != "" {
			ckpt, err = s.spool(spec, normal, mig, sink.events)
			if err != nil {
				return nil, fmt.Errorf("service: spooling drained job: %w", err)
			}
		}
		return nil, s.ctxError(ctx, ckpt)
	}

	var buf bytes.Buffer
	err = report.WriteRunJSON(&buf, report.RunResultJSON{
		Workload:  spec.Workload,
		Instr:     spec.Instr,
		Cores:     spec.Cores,
		Policy:    spec.Policy,   // normalized: "" for the Michaud default
		Topology:  spec.Topology, // normalized: "" for the uniform chip
		Events:    sink.events,
		Normal:    normal.FinalStats(),
		Migration: mig.FinalStats(),
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// multiJob executes one multiprogrammed /run request: K programs
// co-scheduled on a shared L2 complex, each compared against its solo
// baseline. The cluster pass is inherently serial and uninterruptible;
// cancellation is observed between phases and during the solo baseline
// jobs, which is acceptable because multiprogram requests carry no
// checkpoint machinery to spool.
func (s *Service) multiJob(ctx context.Context, spec RunSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	res, err := report.MultiRun(suite.Registry(), report.MultiRunConfig{
		Workloads: spec.Programs,
		Instr:     spec.Instr,
		Cores:     spec.Cores,
		Policy:    spec.Policy,
		Topology:  spec.Topology,
	}, report.RunOptions{Workers: 1, Context: jobCtx})
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteMultiRunJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sampleJob executes one sampled /run request through the shared
// report.SampleRun driver — the same code path as `emsim -sample
// -json`, so the response bytes match the CLI's for the same
// parameters. Workers is 1 (the caller already holds a worker slot);
// chain order makes the estimate identical at any worker count anyway.
func (s *Service) sampleJob(ctx context.Context, spec RunSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	res, err := report.SampleRun(suite.Registry(), report.SampleConfig{
		Workload: spec.Workload,
		Instr:    spec.Instr,
		Cores:    spec.Cores,
		Policy:   spec.Policy,
		Topology: spec.Topology,
		Interval: spec.SampleInterval,
		Clusters: spec.SampleClusters,
		Seed:     spec.SampleSeed,
		Warmup:   spec.SampleWarmup,
	}, report.RunOptions{Workers: 1, Context: jobCtx})
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteSampleJSON(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// spool checkpoints a drained run's machines into the spool directory,
// in the exact EMCKPT1 format `emsim -resume` consumes. The file is
// named by the request's content address, so repeated drains of the
// same request overwrite one spool entry instead of accumulating.
func (s *Service) spool(spec RunSpec, normal, mig *machine.Machine, events uint64) (string, error) {
	path := filepath.Join(s.cfg.SpoolDir, spec.Key()[:16]+".ckpt")
	ck := &machine.Checkpoint{Workload: spec.Workload, Instr: spec.Instr, Cores: spec.Cores, Events: events}
	// Non-default scenarios ride the optional checkpoint extension,
	// exactly as emsim -checkpoint writes it, so recovery (and emsim
	// -resume) rebuilds the same policy.
	if err := machine.CaptureCheckpoint(ck, spec.Policy, spec.Topology, []*machine.Machine{normal, mig}, "normal", "migration"); err != nil {
		return "", err
	}
	if err := machine.SaveCheckpoint(path, ck); err != nil {
		return "", err
	}
	return path, nil
}

// sweepJob executes one cold /sweep request. The sweep driver checks
// the context between points, so cancellation is observed at point
// granularity (points are short; /run carries the event-granularity
// machinery).
func (s *Service) sweepJob(ctx context.Context, spec SweepSpec) ([]byte, error) {
	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	points, err := report.SweepWorkingSetOpt(spec.Sizes, spec.Laps, spec.Cores,
		report.RunOptions{Workers: 1, Context: jobCtx})
	if err != nil {
		if jobCtx.Err() != nil {
			return nil, s.ctxError(ctx, "")
		}
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteSweepJSON(&buf, report.SweepResultJSON{
		Cores:  spec.Cores,
		Laps:   spec.Laps,
		Points: points,
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
