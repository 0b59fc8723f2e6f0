package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostStamp identifies the machine a result was measured on. Results
// are comparable only when every identity field matches; the
// calibration time is recorded alongside because the same host drifts
// between batches of runs, and a drift shows there first.
type hostStamp struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	CalibrationNS float64 `json:"calibration_ns"`
	Seed          uint64  `json:"seed"`
}

// identity is the part of the stamp two comparable results share.
func (h hostStamp) identity() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
}

func stampHost(seed uint64) hostStamp {
	return hostStamp{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		CalibrationNS: calibrate(),
		Seed:          seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// calibrationSink keeps the calibration loop from being optimised away.
var calibrationSink uint64

// calibrate times a fixed splitmix64 kernel (ns per iteration, median
// of five), the host-speed reference every result carries.
func calibrate() float64 {
	const iters = 1 << 22
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		state := uint64(rep)
		var acc uint64
		t := time.Now()
		for i := 0; i < iters; i++ {
			acc ^= splitmix64(&state)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/iters)
		calibrationSink ^= acc
	}
	return median(xs)
}

// historyRecord is one line of the result history.
type historyRecord struct {
	Host     hostStamp          `json:"host"`
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

// recordHistory compares this run with earlier runs of the same
// workload in the checkout's history, then appends it. Earlier runs
// from a different host are refused loudly rather than compared, and
// the first run on a host says so: no result ever becomes a silent
// baseline.
func recordHistory(dir string, host hostStamp, workload string, traceOn int, ms map[string]metric, order []string) error {
	path := filepath.Join(dir, "history.jsonl")
	cur := historyRecord{Host: host, Workload: workload, Trace: traceOn, Metrics: map[string]float64{}}
	for k, m := range ms {
		cur.Metrics[k] = m.Value
	}

	var same, foreign []historyRecord
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		var r historyRecord
		if ln == "" || json.Unmarshal([]byte(ln), &r) != nil || r.Workload != workload || r.Trace != traceOn {
			continue
		}
		if r.Host.identity() == host.identity() {
			same = append(same, r)
		} else {
			foreign = append(foreign, r)
		}
	}
	if len(foreign) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: REFUSING to compare with %d earlier result(s) measured on a different host\n  them: %s\n  this: %s\n",
			len(foreign), foreign[0].Host.identity(), host.identity())
	}
	if len(same) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no comparable earlier result for %s on this host; this run is recorded, not used as a baseline\n", workload)
	} else {
		var cals []float64
		for _, r := range same {
			cals = append(cals, r.Host.CalibrationNS)
		}
		note("history: %d comparable earlier run(s); calibration now/then %.3f", len(same), host.CalibrationNS/median(cals))
		for _, k := range order {
			var xs []float64
			for _, r := range same {
				if v, ok := r.Metrics[k]; ok {
					xs = append(xs, v)
				}
			}
			if m := median(xs); m != 0 {
				note("history: %-36s now/median-then %.3f (n=%d)", k, cur.Metrics[k]/m, len(xs))
			}
		}
	}

	line, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
