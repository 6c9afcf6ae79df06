package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"branchreg/internal/exp"
)

// harnessSetups is how many fresh `brbench -all` processes setup_s takes
// the median of.
const harnessSetups = 3

// runHarness measures harness-all. Its set-up is the cold run: a fresh
// `brbench -all` process, from exec through start-up and one whole run
// on empty caches to exit. The measuring time then runs `brbench -all`
// in-process, back to back, untraced as brbench runs it, with a fresh
// Runner and Parallelism = nproc per iteration. The input is the fixed
// suite `brbench -all` runs; the seed selects nothing.
func runHarness(ctx context.Context, env *env) (result, error) {
	attempted, failed := 0, 0
	tally := func(cells, wrong int) {
		attempted += cells
		failed += wrong
	}
	var setups []float64
	for i := 0; i < harnessSetups; i++ {
		cpu, rep, err := coldHarness(ctx, env)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, cpu.Seconds())
		cells, wrong, err := checkReport(rep, env.golden.harness)
		if err != nil {
			return result{}, err
		}
		tally(cells, wrong)
	}

	var walls, rates, cpus []float64
	measure := time.Duration(env.seconds) * time.Second
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < measure {
		var jobs atomic.Int64
		r := &exp.Runner{Parallelism: runtime.NumCPU(), Progress: func(string, int, int) { jobs.Add(1) }}
		cpu0, err := procCPU("/proc/self/stat")
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		all, err := r.RunAll(ctx, allSpec())
		wall := time.Since(t0)
		if err != nil {
			return result{}, fmt.Errorf("harness: %w", err)
		}
		cpu1, err := procCPU("/proc/self/stat")
		if err != nil {
			return result{}, err
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(jobs.Load())/wall.Seconds())
		cpus = append(cpus, ms(cpu1-cpu0)/float64(jobs.Load()))
		rep, err := strippedReport(all)
		if err != nil {
			return result{}, err
		}
		cells, wrong, err := checkReport(rep, env.golden.harness)
		if err != nil {
			return result{}, err
		}
		tally(cells, wrong)
	}
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return result{}, err
	}
	res := newResult(attempted, failed)
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("cpu_ms", median(cpus), "ms", len(cpus))
	res.set("peak_rss_mb", rss, "MiB", 1)
	res.note("wall_s", median(walls), "s", len(walls))
	res.note("req_s", median(rates), "1/s", len(rates))
	res.note("fail_rate", ratio(failed, attempted), "ratio", attempted)
	return res, nil
}

// coldHarness runs one fresh `brbench -all` process and returns the CPU
// time it used (user plus system, all threads) and its stripped report.
func coldHarness(ctx context.Context, env *env) (time.Duration, []byte, error) {
	dir := filepath.Join(env.root, buildDirName, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	out := filepath.Join(dir, "harness-"+strconv.Itoa(os.Getpid())+".json")
	defer os.Remove(out)
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, env.brbench, "-all", "-par", strconv.Itoa(runtime.NumCPU()), "-json", out)
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return 0, nil, fmt.Errorf("brbench -all: %w: %s", err, lastLine(stderr.Bytes()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	b, err := os.ReadFile(out)
	if err != nil {
		return 0, nil, err
	}
	rep, err := strippedJSON(b)
	return cpu, rep, err
}

// checkReport compares one stripped harness report with the golden one
// and returns the number of suite cells it covers and how many of them
// are wrong. A program whose suite row differs fails both its cells; a
// difference outside the suite rows fails all.
func checkReport(got, want []byte) (cells, wrong int, err error) {
	var rep exp.Report
	if err := json.Unmarshal(want, &rep); err != nil {
		return 0, 0, err
	}
	cells = 2 * len(rep.Suite.Programs)
	if bytes.Equal(got, want) {
		return cells, 0, nil
	}
	programs, other, err := reportDiff(got, want)
	if err != nil {
		return 0, 0, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: harness report differs from golden data (programs %v, other sections %t)\n", programs, other)
	if other {
		return cells, cells, nil
	}
	return cells, 2 * len(programs), nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) string {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return string(lines[len(lines)-1])
}
