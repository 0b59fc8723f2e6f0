package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name     string
	endToEnd func(b *bench) error
	layers   func(b *bench) error
}

func workloads() []workload {
	return []workload{
		cliWorkload{
			name: "em3d", program: "em3d", instr: 40_000_000,
			args: []string{"-workload", "em3d", "-instr", "40000000", "-json"},
			pin:  "9523d9faa15ed8ceb82032503ab64237292031194509118f7978604cf2cbc401",
			// Default -j runs two independent passes; -j 1 is the serial
			// tee. Both must print the same bytes.
			serialCheck: true,
			layerInstr:  10_000_000,
		}.workload(),
		cliWorkload{
			name: "gzip", program: "164.gzip", instr: 80_000_000,
			args:       []string{"-workload", "164.gzip", "-instr", "80000000", "-json", "-j", "1"},
			pin:        "82ca183eabc18a4984a31d47d6a58cd82065f3d110f31d8af17320db678b9e08",
			layerInstr: 10_000_000,
		}.workload(),
		cliWorkload{
			name: "sample-em3d", program: "em3d", instr: 20_000_000, sample: true,
			args:       []string{"-workload", "em3d", "-instr", "20000000", "-sample", "-json"},
			pin:        "fd0a6487d9f645820bc7894418ff8f2b02225493d641e8ffd9c8912b4ba102c7",
			layerInstr: 20_000_000,
		}.workload(),
		{name: "service", endToEnd: serviceEndToEnd, layers: serviceLayers},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads() {
		ns = append(ns, w.name)
	}
	return ns
}

// cliWorkload is an emsim invocation timed as a child process.
type cliWorkload struct {
	name    string
	program string // workload registry name
	instr   uint64 // instruction budget
	sample  bool
	args    []string
	// pin is the SHA-256 of the JSON the invocation must print.
	pin         string
	serialCheck bool
	// layerInstr is the budget of the stream the traced run records and
	// re-drives through each layer.
	layerInstr uint64
}

func (c cliWorkload) workload() workload {
	return workload{name: c.name, endToEnd: c.endToEnd, layers: c.layers}
}

// withInstr returns the invocation's arguments with another budget.
func (c cliWorkload) withInstr(instr uint64) []string {
	out := append([]string(nil), c.args...)
	for i := range out {
		if out[i] == "-instr" {
			out[i+1] = strconv.FormatUint(instr, 10)
		}
	}
	return out
}

// procRun is one finished emsim process.
type procRun struct {
	wall  time.Duration
	cpu   time.Duration // user + sys
	rssKB int64
	out   []byte
}

func execEmsim(path string, args []string) (procRun, error) {
	cmd := exec.Command(path, args...)
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("emsim %v: %v: %s", args, err, stderr.String())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return procRun{}, fmt.Errorf("emsim %v: no rusage", args)
	}
	return procRun{
		wall:  wall,
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssKB: ru.Maxrss,
		out:   out.Bytes(),
	}, nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// setupReps is how many times a run measures set-up; setup_s is the
// median.
const setupReps = 7

// measureSetup times the program's set-up: an emsim process that
// builds both machines and the workload and simulates its first
// iteration (the smallest budget a run can have).
func (c cliWorkload) measureSetup(b *bench) error {
	var xs []float64
	args := c.withInstr(1)
	for i := 0; i < setupReps; i++ {
		r, err := execEmsim(b.emsim, args)
		if err != nil {
			return err
		}
		var v struct {
			Instr uint64 `json:"instr"`
		}
		b.check(json.Unmarshal(r.out, &v) == nil && v.Instr == 1, "%s set-up run printed %q", c.name, r.out)
		xs = append(xs, seconds(r.wall))
	}
	b.set("setup_s", "s", median(xs))
	return nil
}

// rep runs the invocation once and checks its output against the pin.
func (c cliWorkload) rep(b *bench) (procRun, error) {
	id := b.tr.begin("emsim "+c.name, -1)
	r, err := execEmsim(b.emsim, c.args)
	b.tr.end(id)
	if err == nil {
		b.check(sha(r.out) == c.pin, "%s output sha256 %s, pinned %s", c.name, sha(r.out), c.pin)
	}
	return r, err
}

// timedReps runs the invocation until the run's time is spent (at
// least three times).
func (c cliWorkload) timedReps(b *bench) ([]procRun, error) {
	var runs []procRun
	start := time.Now()
	for len(runs) < 3 || time.Since(start) < b.seconds {
		r, err := c.rep(b)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func (c cliWorkload) serialBytesCheck(b *bench) error {
	if !c.serialCheck {
		return nil
	}
	r, err := execEmsim(b.emsim, append(append([]string(nil), c.args...), "-j", "1"))
	if err != nil {
		return err
	}
	b.check(sha(r.out) == c.pin, "%s -j 1 output sha256 %s differs from default -j (pinned %s)", c.name, sha(r.out), c.pin)
	note("serial -j 1 check: wall %.3f s cpu %.3f s", seconds(r.wall), seconds(r.cpu))
	return nil
}

// summary is the end-to-end view of a set of timed runs.
type summary struct {
	wall, cpu, nsPerInstr, rssMB float64
}

func summarize(runs []procRun, instr uint64) summary {
	var walls, cpus, rss []float64
	for _, r := range runs {
		walls = append(walls, seconds(r.wall))
		cpus = append(cpus, seconds(r.cpu))
		rss = append(rss, float64(r.rssKB)/1024)
	}
	w := median(walls)
	note("%d runs: wall median %.4f s (spread %.3f), cpu median %.4f s (spread %.3f); walls %.3f",
		len(runs), w, spread(walls), median(cpus), spread(cpus), walls)
	return summary{
		wall:       w,
		cpu:        median(cpus),
		nsPerInstr: w * 1e9 / float64(instr),
		rssMB:      median(rss),
	}
}

func (c cliWorkload) endToEnd(b *bench) error {
	if err := c.measureSetup(b); err != nil {
		return err
	}
	if err := c.serialBytesCheck(b); err != nil {
		return err
	}
	runs, err := c.timedReps(b)
	if err != nil {
		return err
	}
	s := summarize(runs, c.instr)
	b.set("wall_s", "s", s.wall)
	b.set("cpu_s", "s", s.cpu)
	b.set("ns_per_instr", "ns", s.nsPerInstr)
	b.set("peak_rss_mb", "MB", s.rssMB)
	return nil
}

// layers is the traced run: untraced and traced end-to-end runs
// alternate for the tracing overhead, then the workload's stream is
// recorded and re-driven through every layer, and the layer sum is
// reconciled with the end-to-end figure.
func (c cliWorkload) layers(b *bench) error {
	var plain, traced []procRun
	start := time.Now()
	for i := 0; len(plain) < 2 || len(traced) < 2 || time.Since(start) < b.seconds; i++ {
		b.tr.on = i%2 == 1
		r, err := c.rep(b)
		if err != nil {
			return err
		}
		if b.tr.on {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	b.tr.on = true
	s := summarize(plain, c.instr)
	tw := summarize(traced, c.instr).wall
	b.set("trace.wall_ratio", "ratio", tw/s.wall)
	note("tracing overhead: traced − untraced wall_s = %+.4f s", tw-s.wall)

	var out struct {
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal(plain[0].out, &out); err != nil || out.Events == 0 {
		return fmt.Errorf("%s: no event count in output: %v", c.name, err)
	}
	root := b.tr.begin("layer ledger "+c.name, -1)
	lt, err := layerLedger(b, c.program, c.layerInstr, c.sample, root)
	b.tr.end(root)
	if err != nil {
		return err
	}
	perEvent := func(d time.Duration) float64 { return ns(d, lt.events) * float64(out.Events) / 1e9 }
	switch {
	case c.sample:
		reconcile(b, "wall_s ≈ profile pass + cluster + simulate", (lt.profilePass + lt.clusterTime + lt.simulate).Seconds(), s.wall,
			"process start, planning, estimate reconstruction and JSON render")
	case c.serialCheck:
		reconcile(b, fmt.Sprintf("cpu_s ≈ %d events × (2·gen + normal + migration)", out.Events),
			perEvent(2*lt.gen+lt.normal+lt.mig), s.cpu,
			"process start, machine construction in both passes, JSON render, and per-event costs of the full run differing from the recorded prefix")
	default:
		reconcile(b, fmt.Sprintf("wall_s ≈ %d events × (gen + normal + migration)", out.Events),
			perEvent(lt.gen+lt.normal+lt.mig), s.wall,
			"process start, the serial tee splitting batches at checkpoint boundaries, JSON render, and per-event costs of the full run differing from the recorded prefix")
	}
	return nil
}
