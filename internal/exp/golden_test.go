package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// goldenHarness is the stripped `brbench -all -json` report the
// benchmark checks every harness run against.
var goldenHarness = filepath.Join("..", "..", "perfbench", "golden", "harness.json")

// TestHarnessMatchesGolden runs exactly what `brbench -all` runs and
// compares the report, stripped of the fields that vary from run to run
// or host to host (phase wall clocks, the worker count, the memory
// pool's GC-dependent fresh count), byte for byte with the golden one.
// Every table, the compile-cache counters and the pool traffic are
// covered.
func TestHarnessMatchesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full harness is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("runs the full brbench -all spec")
	}
	want, err := os.ReadFile(goldenHarness)
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	all, err := r.RunAll(context.Background(), AllSpec{
		Suite: true, CacheStudy: true, Ablations: true, Validate: true, Align: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := all.Report()
	rep.Phases = nil
	rep.Parallelism = 0
	rep.Pool.Fresh = 0
	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stripped report differs from %s (compile cache %+v, pool %+v)",
			goldenHarness, rep.CompileCache, rep.Pool)
	}
}
