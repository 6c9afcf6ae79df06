// Command perfbench is the repository's benchmark. It measures four
// workloads end to end — the `brbench -all` harness in-process and three
// brserve traffic regimes over loopback — checks every output against the
// golden data committed beside it, and, in a separate traced run, replays
// each workload's inputs through every layer's public functions to give
// per-layer numbers. See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it and
// brserve from the tree:
//
//	bash perfbench/run.sh --workload serve-memo --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result, one JSON object.
// Subcommands:
//
//	perfbench record-golden [-root dir]   rewrite golden/ from the tree
//	perfbench compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// buildDirName is the directory, at the repository root, that run.sh
// builds into and runs write their records and traces to.
const buildDirName = ".bench_build"

// runTimeout bounds a whole run, so a hung server or client cannot keep
// the benchmark from exiting.
const runTimeout = 170 * time.Second

var workloadNames = []string{"harness-all", "serve-unique", "serve-memo", "serve-rerun"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Kept in the run's record, not in the result line: how many
	// observations stand behind each metric, and figures recorded but
	// not gated.
	samples map[string]int
	extra   map[string]metric
}

func newResult(attempted, failed int) result {
	return result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{}, samples: map[string]int{}, extra: map[string]metric{}}
}

// set records a gated metric measured from n observations.
func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{v, unit}
	r.samples[name] = n
}

// note records a figure measured from n observations that the record
// keeps but the benchmark does not gate.
func (r *result) note(name string, v float64, unit string, n int) {
	r.extra[name] = metric{v, unit}
	r.samples[name] = n
}

// env is what one run needs: its arguments, the built binaries and the
// golden data.
type env struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	brserve  string
	brbench  string
	golden   *golden
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record-golden":
			fs := flag.NewFlagSet("record-golden", flag.ExitOnError)
			root := fs.String("root", ".", "repository root")
			_ = fs.Parse(os.Args[2:])
			if err := recordGolden(filepath.Join(*root, "perfbench")); err != nil {
				fatal(err)
			}
			return
		case "compare":
			if err := compareRecords(os.Stdout, os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	e := &env{}
	workload := flag.String("workload", "", "workload: harness-all, serve-unique, serve-memo or serve-rerun")
	flag.Uint64Var(&e.seed, "seed", 1, "input seed (below 2^32)")
	flag.IntVar(&e.seconds, "seconds", 20, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&e.root, "root", ".", "repository root")
	flag.StringVar(&e.brserve, "brserve", filepath.Join(buildDirName, "bin", "brserve"), "brserve binary")
	flag.StringVar(&e.brbench, "brbench", filepath.Join(buildDirName, "bin", "brbench"), "brbench binary")
	flag.Parse()
	e.workload = *workload
	if !known(e.workload) {
		fatal(fmt.Errorf("unknown workload %q (want one of %v)", e.workload, workloadNames))
	}
	if e.seconds < 1 || e.seed >= 1<<32 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad arguments: --seconds must be >= 1, --seed < 2^32, --trace 0 or 1"))
	}
	g, err := loadGolden(filepath.Join(e.root, "perfbench"))
	if err != nil {
		fatal(err)
	}
	e.golden = g
	h := fingerprint(e.root)
	hb, _ := json.Marshal(h)
	fmt.Printf("host: %s\n", hb)

	// An interrupt or the timeout cancels the run, which then stops the
	// servers it started before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	var res result
	switch {
	case *trace == 1:
		res, err = tracedRun(ctx, e)
	case e.workload == "harness-all":
		res, err = runHarness(ctx, e)
	default:
		res, err = runServe(ctx, e, serveWorkloads[e.workload])
	}
	if err != nil {
		fatal(err)
	}
	rec := record{Host: h, Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: *trace == 1,
		Samples: res.samples, Extra: res.extra, Result: res}
	path, err := writeRecord(e.root, rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("record: %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// writeRecord stores a stamped run record under the build directory.
func writeRecord(root string, rec record) (string, error) {
	dir := filepath.Join(root, buildDirName, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano()))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
