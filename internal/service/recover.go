package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/runner"
)

// Crash recovery: Drain spools interrupted /run jobs as EMCKPT1
// checkpoints; Recover, called once at startup, re-adopts them and runs
// each to completion on the normal worker pool, publishing the finished
// result through the same cache + store path a fresh request would use.
// The resumed pass replays the deterministic workload with the
// checkpointed prefix skipped (jobSink.skip), so a recovered result is
// byte-identical to one computed without the crash — which is what lets
// recovery share the content-addressed key space safely.
//
// A checkpoint that cannot be adopted is never deleted silently:
// corrupt or unusable files move to SpoolDir/quarantine for inspection,
// and trace-driven ("foreign") checkpoints — which emsim -resume can
// consume but the service cannot, having no trace file — stay in place.

// spoolQuarantineDir is where unusable spool checkpoints are set aside,
// mirroring the store's quarantine policy.
const spoolQuarantineDir = "quarantine"

// RecoveryReport summarises one Recover pass.
type RecoveryReport struct {
	Resumed     int // checkpoints run to completion and published
	AlreadyDone int // checkpoints whose result was already cached or stored
	Respooled   int // resumes interrupted again (drain during recovery)
	Quarantined int // corrupt or unusable checkpoints set aside
	Foreign     int // trace-driven checkpoints left for emsim -resume
	Errors      []error
}

// Recover scans the spool directory and resumes every adoptable
// checkpoint to completion. It always runs to the end of the scan
// (per-file failures are collected, not fatal) and always marks the
// service ready afterwards: a service that cannot recover one file
// should still serve fresh traffic. Safe to run concurrently with
// request traffic — recovery jobs take worker slots like any other job
// and first-result-wins arbitrates duplicates. Cancelling ctx stops
// the scan between files: the remaining checkpoints count as Respooled
// and stay on disk for the next start (previously only the in-flight
// resume observed ctx, so a shutdown mid-scan kept loading and
// re-admitting jobs against its own drain).
func (s *Service) Recover(ctx context.Context) RecoveryReport {
	defer s.recoveryDone.Store(true)
	var rep RecoveryReport
	if s.cfg.SpoolDir == "" {
		return rep
	}
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if err != nil {
		if os.IsNotExist(err) {
			return rep // nothing was ever spooled
		}
		rep.Errors = append(rep.Errors, fmt.Errorf("service: scanning spool: %w", err))
		return rep
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		if ctx.Err() != nil {
			rep.Respooled++
			continue
		}
		s.recoverOne(ctx, filepath.Join(s.cfg.SpoolDir, e.Name()), &rep)
	}
	return rep
}

// recoverOne adopts a single spool file.
func (s *Service) recoverOne(ctx context.Context, path string, rep *RecoveryReport) {
	ck, err := machine.LoadCheckpoint(path)
	if err != nil {
		s.quarantineSpool(path, rep, fmt.Errorf("service: corrupt spool checkpoint %s: %w", path, err))
		return
	}
	if ck.Replay != "" {
		// Trace-driven checkpoints need the trace file; only the CLI's
		// -resume has it. Leave the file where emsim can find it.
		rep.Foreign++
		return
	}
	spec := RunSpec{Workload: ck.Workload, Instr: ck.Instr, Cores: ck.Cores}
	if ext := ck.Ext(); ext != nil {
		spec.Policy, spec.Topology = ext.Policy, ext.Topology
	}
	spec = spec.normalized()
	if err := spec.validate(); err != nil {
		s.quarantineSpool(path, rep, fmt.Errorf("service: unusable spool checkpoint %s: %w", path, err))
		return
	}
	key := spec.Key()
	if _, ok := s.cache.get(key); ok || (s.cfg.Store != nil && s.cfg.Store.Has(key)) {
		// Someone (a retrying client, an earlier recovery) already
		// finished this work; the checkpoint is obsolete.
		rep.AlreadyDone++
		os.Remove(path)
		return
	}

	release, ok := s.beginInternal()
	if !ok {
		// Draining already: the checkpoint survives for the next start.
		rep.Respooled++
		return
	}
	body, respooled, err := s.resumeJob(ctx, spec, ck)
	release()
	switch {
	case respooled:
		rep.Respooled++
	case err != nil:
		rep.Errors = append(rep.Errors, fmt.Errorf("service: resuming %s: %w", path, err))
	default:
		s.metrics.Completed.Inc()
		s.metrics.RecoveredJobs.Inc()
		s.remember(key, body)
		s.publish()
		os.Remove(path)
		rep.Resumed++
	}
}

// quarantineSpool moves an unusable checkpoint aside and records why.
func (s *Service) quarantineSpool(path string, rep *RecoveryReport, cause error) {
	rep.Quarantined++
	rep.Errors = append(rep.Errors, cause)
	s.metrics.Quarantined.Inc()
	s.publish()
	qdir := filepath.Join(s.cfg.SpoolDir, spoolQuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err == nil {
			return
		}
	}
	// A file that can be neither moved nor kept from poisoning the next
	// scan is removed: the cause above preserves the evidence.
	os.Remove(path)
}

// beginInternal registers a recovery job with the drain accounting and
// takes a worker slot, without the request-path metrics (a recovery job
// was admitted in a previous life; counting it again would double it).
func (s *Service) beginInternal() (release func(), ok bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, false
	}
	s.jobs.Add(1)
	s.mu.Unlock()
	select {
	case s.slots <- struct{}{}:
	case <-s.jobsCtx.Done():
		s.jobs.Done()
		return nil, false
	}
	s.metrics.InFlight.Add(1)
	s.publish()
	return func() {
		<-s.slots
		s.metrics.InFlight.Add(-1)
		s.jobs.Done()
		s.publish()
	}, true
}

// resumeJob is runJob picking up from a checkpoint: restore both
// machine snapshots, then replay the workload with the first ck.Events
// events skipped. If drain interrupts the resume, the job re-spools at
// its current position (never before the restored one) and reports
// respooled=true.
func (s *Service) resumeJob(ctx context.Context, spec RunSpec, ck *machine.Checkpoint) (body []byte, respooled bool, err error) {
	normal, err := machine.New(machine.NormalConfig())
	if err != nil {
		return nil, false, err
	}
	migCfg, err := machine.MigrationConfigScenario(spec.Cores, spec.Policy, spec.Topology)
	if err != nil {
		return nil, false, err
	}
	mig, err := machine.New(migCfg)
	if err != nil {
		return nil, false, err
	}
	fan, err := machine.NewFanOut(normal, mig)
	if err != nil {
		return nil, false, err
	}
	if err := fan.Restore(ck, "normal", "migration"); err != nil {
		return nil, false, err
	}

	jobCtx, cancel := s.jobContext(ctx)
	defer cancel()
	stop, releaseStop := runner.StopWhenDone(jobCtx)
	defer releaseStop()

	sink := &jobSink{out: fan, skip: ck.Events, stop: stop}
	interrupted, err := driveJob(spec.Workload, spec.Instr, sink)
	if err != nil {
		return nil, false, err
	}
	if interrupted {
		if s.jobsCtx.Err() != nil && s.cfg.SpoolDir != "" {
			// An interrupt during fast-forward leaves the machines at the
			// restored event count, not at sink.events.
			ev := sink.events
			if ev < ck.Events {
				ev = ck.Events
			}
			if _, err := s.spool(spec, normal, mig, ev); err != nil {
				return nil, false, fmt.Errorf("re-spooling drained recovery: %w", err)
			}
			return nil, true, nil
		}
		return nil, false, s.ctxError(ctx, "")
	}

	var buf bytes.Buffer
	err = report.WriteRunJSON(&buf, report.RunResultJSON{
		Workload:  spec.Workload,
		Instr:     spec.Instr,
		Cores:     spec.Cores,
		Policy:    spec.Policy,
		Topology:  spec.Topology,
		Events:    sink.events,
		Normal:    normal.FinalStats(),
		Migration: mig.FinalStats(),
	})
	if err != nil {
		return nil, false, err
	}
	return buf.Bytes(), false, nil
}
