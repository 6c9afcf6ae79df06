package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/exp"
	"branchreg/internal/irexec"
)

// Golden data lives beside the benchmark. cells.json holds each cell's
// output digest, exit status and instruction count; harness.json holds
// the `brbench -all -json` report with its host- and timing-dependent
// fields stripped. `perfbench record-golden` writes both.
const (
	goldenCellsFile   = "golden/cells.json"
	goldenHarnessFile = "golden/harness.json"
)

// goldenCell is one cell's expected result.
type goldenCell struct {
	OutputSHA256 string `json:"output_sha256"`
	Status       int32  `json:"status"`
	Instructions int64  `json:"instructions"`
}

type golden struct {
	Cells   map[string]goldenCell `json:"cells"`
	harness []byte
}

func outputDigest(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// check compares one served or computed result with the cell's golden
// entry.
func (g *golden) check(key, output string, status int32, insts int64) error {
	want, ok := g.Cells[key]
	if !ok {
		return fmt.Errorf("%s: no golden entry", key)
	}
	if d := outputDigest(output); d != want.OutputSHA256 {
		return fmt.Errorf("%s: output sha256 %s, want %s", key, d[:12], want.OutputSHA256[:12])
	}
	if status != want.Status {
		return fmt.Errorf("%s: status %d, want %d", key, status, want.Status)
	}
	if insts != want.Instructions {
		return fmt.Errorf("%s: %d instructions, want %d", key, insts, want.Instructions)
	}
	return nil
}

func loadGolden(benchDir string) (*golden, error) {
	b, err := os.ReadFile(filepath.Join(benchDir, goldenCellsFile))
	if err != nil {
		return nil, fmt.Errorf("golden data: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden data: %w", err)
	}
	if g.harness, err = os.ReadFile(filepath.Join(benchDir, goldenHarnessFile)); err != nil {
		return nil, fmt.Errorf("golden data: %w", err)
	}
	return &g, nil
}

// strippedReport renders a RunAll result without the fields that vary
// from run to run or host to host: phase wall clocks, the worker count,
// and the memory pool's GC-dependent fresh-allocation count.
func strippedReport(res *exp.AllResults) ([]byte, error) {
	return strip(res.Report())
}

// strippedJSON is strippedReport for a report `brbench -json` wrote.
func strippedJSON(b []byte) ([]byte, error) {
	var rep exp.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return strip(&rep)
}

func strip(rep *exp.Report) ([]byte, error) {
	rep.Phases = nil
	rep.Parallelism = 0
	rep.Pool.Fresh = 0
	return rep.Encode()
}

// allSpec is exactly what `brbench -all` runs.
func allSpec() exp.AllSpec {
	return exp.AllSpec{Suite: true, CacheStudy: true, Ablations: true, Validate: true, Align: true}
}

// recordGolden computes the golden data from the tree it runs in and
// writes it under benchDir. Each cell's output and status are
// cross-checked against the IR interpreter and its instruction count
// against the instrumented engine before anything is written.
func recordGolden(benchDir string) error {
	ctx := context.Background()
	g := golden{Cells: map[string]goldenCell{}}
	for _, c := range allCells() {
		src, input := workloadSource(c.Program)
		res, err := driver.Exec(ctx, driver.Request{Source: src, Kind: c.Kind, Input: input, Options: driver.DefaultOptions()})
		if err != nil {
			return fmt.Errorf("%s: %w", c.Key(), err)
		}
		ref, err := driver.Exec(ctx, driver.Request{Source: src, Kind: c.Kind, Input: input,
			Options: driver.DefaultOptions(), Loop: emu.LoopInstrumented})
		if err != nil {
			return fmt.Errorf("%s (instrumented): %w", c.Key(), err)
		}
		if ref.Stats.Instructions != res.Stats.Instructions || ref.Output != res.Output || ref.Status != res.Status {
			return fmt.Errorf("%s: %s engine disagrees with the instrumented engine", c.Key(), res.Engine)
		}
		u, err := driver.Lower(src, driver.DefaultOptions())
		if err != nil {
			return fmt.Errorf("%s: %w", c.Key(), err)
		}
		out, status, err := irexec.RunSource(u, input)
		if err != nil {
			return fmt.Errorf("%s (irexec): %w", c.Key(), err)
		}
		if out != res.Output || status != res.Status {
			return fmt.Errorf("%s: emulator disagrees with the IR interpreter", c.Key())
		}
		g.Cells[c.Key()] = goldenCell{OutputSHA256: outputDigest(res.Output), Status: res.Status,
			Instructions: res.Stats.Instructions}
	}
	cells, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	all, err := (&exp.Runner{}).RunAll(ctx, allSpec())
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	harness, err := strippedReport(all)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(benchDir, "golden"), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(benchDir, goldenCellsFile), append(cells, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir, goldenHarnessFile), harness, 0o644)
}

// reportDiff names the suite programs whose rows differ between two
// stripped reports, and whether anything outside the suite rows differs.
func reportDiff(got, want []byte) (programs map[string]bool, other bool, err error) {
	var g, w exp.Report
	if err := json.Unmarshal(got, &g); err != nil {
		return nil, false, err
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return nil, false, err
	}
	if g.Suite == nil || w.Suite == nil || len(g.Suite.Programs) != len(w.Suite.Programs) {
		return nil, true, nil
	}
	programs = map[string]bool{}
	for i := range g.Suite.Programs {
		a, _ := json.Marshal(g.Suite.Programs[i])
		b, _ := json.Marshal(w.Suite.Programs[i])
		if !bytes.Equal(a, b) {
			programs[w.Suite.Programs[i].Name] = true
		}
	}
	g.Suite.Programs, w.Suite.Programs = nil, nil
	a, _ := json.Marshal(g)
	b, _ := json.Marshal(w)
	return programs, !bytes.Equal(a, b), nil
}
