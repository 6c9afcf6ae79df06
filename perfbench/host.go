package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host is the fingerprint stamped on every result. Two results are
// comparable only when their host fields match; the code identity is
// recorded so a comparison names what it compared.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the tree is a git work tree, otherwise
	// "tree-" plus a digest of every file in the tree (the benchmark's
	// build directory excluded). Dirty marks uncommitted changes,
	// untracked files included.
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
}

func fingerprint(root string) host {
	h := host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
			// Untracked files count: go build compiles a new .go file
			// before it is added. The build directory is git-ignored.
			st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
			h.Dirty = err != nil || len(st) > 0
			return h
		}
	}
	h.Commit = treeDigest(root)
	return h
}

// sameHost reports why two fingerprints are not comparable ("" if they
// are).
func sameHost(a, b host) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
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

// treeDigest hashes the path and contents of every regular file under
// root except the build directory, in path order.
func treeDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == buildDirName || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one run's stamped result, written under the build directory
// and read back by `perfbench compare`.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Samples is how many observations stand behind each metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Extra holds figures the run records but the benchmark does not
	// gate: tail latency and the failure rate.
	Extra  map[string]metric `json:"extra,omitempty"`
	Result result            `json:"result"`
}

// compareRecords prints each figure of two records side by side, under a
// header naming each record's commit and dirty flag. It refuses records
// from different hosts, workloads, run lengths or tracing.
func compareRecords(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("compare: want two record files, got %d", len(paths))
	}
	var recs [2]record
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("compare: %s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if why := sameHost(a.Host, b.Host); why != "" {
		return fmt.Errorf("compare: refusing to compare results from different hosts: %s", why)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("compare: runs differ in workload, length or tracing (%s/%ds/trace=%t vs %s/%ds/trace=%t)",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	code := func(h host) string {
		if h.Dirty {
			return h.Commit + " (dirty)"
		}
		return h.Commit
	}
	fmt.Fprintf(w, "%s: %s vs %s on %s (nproc %d)\n", a.Workload, code(a.Host), code(b.Host), a.Host.CPUModel, a.Host.NProc)
	// Gated metrics and recorded figures alike.
	all := func(r record) map[string]metric {
		m := map[string]metric{}
		for n, v := range r.Result.Metrics {
			m[n] = v
		}
		for n, v := range r.Extra {
			m[n] = v
		}
		return m
	}
	ma, mb := all(a), all(b)
	seen := map[string]bool{}
	var names []string
	for _, m := range []map[string]metric{ma, mb} {
		for n := range m {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, okx := ma[n]
		y, oky := mb[n]
		change := "n/a"
		if okx && oky && x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/x.Value)
		}
		unit := x.Unit
		if !okx {
			unit = y.Unit
		}
		fmt.Fprintf(w, "  %-44s %14.4f %14.4f %8s %s\n", n, x.Value, y.Value, change, unit)
	}
	return nil
}
