package driver

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"branchreg/internal/emu"
	"branchreg/internal/irexec"
	"branchreg/internal/isa"
	"branchreg/internal/mc"
)

// Native fuzz targets for `make fuzz-smoke`: short, coverage-guided runs
// of the differential program fuzzers, the compiler's front door and the
// fault injector. All assert the robustness contract — hostile source
// ends in a program or a compile error, and a bad program or a hostile
// fault plan ends in a typed trap or a clean exit, never a panic or a
// divergence.

// FuzzDifferentialPrograms is the coverage-guided form of
// TestFuzzDifferential: one generated program per input, compared across
// the IR interpreter and both machines — and, per machine, across the
// predecoded fast loop and the instrumented loop (identical Stats too).
func FuzzDifferentialPrograms(f *testing.F) {
	for _, seed := range []int64{1, 20260706, 424242} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		gen := &progGen{r: rand.New(rand.NewSource(seed))}
		src := gen.generate()
		o := DefaultOptions()
		iu, err := Lower(src, o)
		if err != nil {
			t.Fatalf("lower: %v\nprogram:\n%s", err, src)
		}
		refOut, refStatus, err := irexec.RunSource(iu, "")
		if err != nil {
			t.Fatalf("irexec: %v\nprogram:\n%s", err, src)
		}
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), src, kind, o)
			if err != nil {
				t.Fatalf("%v: %v\nprogram:\n%s", kind, err, src)
			}
			fast, err := Exec(context.Background(), Request{Program: p, Loop: emu.LoopFast})
			if err != nil {
				t.Fatalf("%v fast: %v\nprogram:\n%s", kind, err, src)
			}
			if fast.Status != refStatus || fast.Output != refOut {
				t.Fatalf("%v diverges: status %d vs reference %d\nprogram:\n%s",
					kind, fast.Status, refStatus, src)
			}
			inst, err := Exec(context.Background(), Request{Program: p, Loop: emu.LoopInstrumented})
			if err != nil {
				t.Fatalf("%v instrumented: %v\nprogram:\n%s", kind, err, src)
			}
			instEq := *inst
			instEq.Engine = fast.Engine // only the engine name may differ
			if !eqResult(*fast, instEq) {
				t.Fatalf("%v engine divergence:\n fast: %+v\n inst: %+v\nprogram:\n%s",
					kind, fast, inst, src)
			}
		}
	})
}

// FuzzFusedDifferential is the block-fused engine's coverage-guided
// differential: one generated program per input, run on both machines
// under the fast and fused loops with a fuzzed instruction budget, so the
// budget cutoff lands at arbitrary points — including mid-block, where
// the fused engine must delegate to per-instruction accounting to keep
// the trap's Executed count exact. Asserts identical results, identical
// trap kind/PC/budget fields, and that an armed fault plan is rejected by
// LoopFused but degrades LoopAuto to the instrumented engine with
// unchanged results.
func FuzzFusedDifferential(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(20260806), int64(1000))
	f.Add(int64(7), int64(17))
	f.Fuzz(func(t *testing.T, seed, budget int64) {
		gen := &progGen{r: rand.New(rand.NewSource(seed))}
		src := gen.generate()
		o := DefaultOptions()
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := Compile(context.Background(), src, kind, o)
			if err != nil {
				t.Fatalf("%v: %v\nprogram:\n%s", kind, err, src)
			}
			run := func(mode emu.LoopMode) (*emu.Machine, error) {
				m, err := emu.New(p, "")
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				m.Loop = mode
				if budget > 0 {
					m.MaxInstructions = budget % (1 << 20)
				}
				_, runErr := m.Run()
				return m, runErr
			}
			fm, ferr := run(emu.LoopFast)
			um, uerr := run(emu.LoopFused)
			if (ferr == nil) != (uerr == nil) {
				t.Fatalf("%v error divergence: fast=%v fused=%v\nprogram:\n%s", kind, ferr, uerr, src)
			}
			if ferr != nil {
				var ft, ut *emu.Trap
				fok, uok := errors.As(ferr, &ft), errors.As(uerr, &ut)
				if fok != uok {
					t.Fatalf("%v trap-ness divergence: fast=%v fused=%v", kind, ferr, uerr)
				}
				if fok && *ft != *ut {
					t.Fatalf("%v trap divergence:\n fast: %+v\n fused: %+v\nprogram:\n%s",
						kind, *ft, *ut, src)
				}
			}
			if fm.Output() != um.Output() || fm.Status() != um.Status() || fm.Stats != um.Stats {
				t.Fatalf("%v fused divergence: output %q vs %q, status %d vs %d\nprogram:\n%s",
					kind, fm.Output(), um.Output(), fm.Status(), um.Status(), src)
			}

			// A fault plan must never reach the fused engine: forcing it is
			// an error, and LoopAuto degrades to the instrumented loop.
			plan := &emu.FaultPlan{Seed: seed, Ops: []emu.FaultOp{
				{Kind: emu.FaultCorruptBReg, N: 1 + budget%64, BReg: int(seed & 7)},
			}}
			m, err := emu.New(p, "")
			if err != nil {
				t.Fatal(err)
			}
			m.Loop = emu.LoopFused
			m.SetFaultPlan(plan)
			if _, err := m.Run(); err == nil {
				t.Fatalf("%v: LoopFused accepted a fault plan", kind)
			} else if trap := new(emu.Trap); errors.As(err, &trap) {
				t.Fatalf("%v: fault-plan rejection should not be a trap: %v", kind, err)
			}
			auto, err := Exec(context.Background(), Request{Program: p, Faults: plan})
			if err != nil {
				var trap *emu.Trap
				if !errors.As(err, &trap) {
					t.Fatalf("%v: non-trap error under faults: %v", kind, err)
				}
			} else if auto.Engine != emu.EngineInstrumented {
				t.Fatalf("%v: engine %q under faults, want %q", kind, auto.Engine, emu.EngineInstrumented)
			}
		}
	})
}

// FuzzCompileSource is the front door's fuzz target (wired into `make
// fuzz-smoke`): arbitrary bytes, compiled for both machines, must give a
// program or an error within hostileBudget — never a panic (the fuzzer
// catches those as crashes) and never a stack overflow. An error from
// the front end must be a positioned *mc.Error. The seeds are the
// hostile shapes of TestHostileSourcesRejected at 1,000 levels, plus a
// valid program.
func FuzzCompileSource(f *testing.F) {
	f.Add([]byte("int main(void) { return 0; }"))
	f.Add([]byte("int main(void) { return " + strings.Repeat("(", 1_000) + "1" +
		strings.Repeat(")", 1_000) + "; }"))
	f.Add([]byte("int main(void) { return 1" + strings.Repeat("+1", 1_000) + "; }"))
	f.Add([]byte("int main(void) { return " + strings.Repeat("-", 2_000) + "1; }"))
	f.Fuzz(func(t *testing.T, src []byte) {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			start := time.Now()
			p, err := Compile(context.Background(), string(src), kind, DefaultOptions())
			if d := time.Since(start); d > hostileBudget {
				t.Fatalf("%v: compile took %v, budget %v", kind, d, hostileBudget)
			}
			if (p == nil) == (err == nil) {
				t.Fatalf("%v: want a program or an error, got program %v and error %v", kind, p != nil, err)
			}
			var e *mc.Error
			if err != nil && strings.HasPrefix(err.Error(), "front end: ") && !errors.As(err, &e) {
				t.Fatalf("%v: untyped front-end error: %v", kind, err)
			}
		}
	})
}

// faultTestPrograms compiles one small branchy program per machine, once,
// for FuzzFaultPlan to perturb.
var faultTestPrograms = sync.OnceValues(func() ([]*isa.Program, error) {
	const src = `
int leaf(int x) { return x * 3 + 1; }
int main(void) {
    int s = 0;
    for (int i = 0; i < 200; i++) {
        if (i % 3 == 0) s += leaf(i); else s -= i;
    }
    return s & 255;
}`
	var out []*isa.Program
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		p, err := Compile(context.Background(), src, kind, DefaultOptions())
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
})

// planFromBytes decodes fuzz input into a FaultPlan: up to 8 ops, every
// field derived from the bytes. FaultPanic is excluded — it exists solely
// to exercise the experiment runner's recover path and panics by design.
func planFromBytes(data []byte) *emu.FaultPlan {
	plan := &emu.FaultPlan{}
	for len(data) >= 8 && len(plan.Ops) < 8 {
		chunk := data[:8]
		data = data[8:]
		op := emu.FaultOp{
			Kind:       emu.FaultKind(chunk[0] % 4), // flip, breg, budget, force-trap
			N:          int64(binary.LittleEndian.Uint16(chunk[2:4])),
			Addr:       int32(binary.LittleEndian.Uint16(chunk[4:6])) * 17,
			Mask:       uint32(chunk[6]),
			BReg:       int(chunk[7]),
			Invalidate: chunk[1]&1 != 0,
			Budget:     int64(binary.LittleEndian.Uint16(chunk[4:6])),
		}
		if chunk[1]&2 != 0 {
			op.Fn = "leaf"
		}
		plan.Seed = int64(chunk[7])<<8 | int64(chunk[0])
		plan.Ops = append(plan.Ops, op)
	}
	if len(plan.Ops) == 0 {
		return nil
	}
	return plan
}

// FuzzFaultPlan feeds arbitrary fault plans to the emulator on both
// machines and asserts the robustness contract: a typed trap or a clean
// exit, never a panic (the fuzzer itself catches panics as crashes).
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10, 0, 0, 1, 0xff, 1})                     // flip a data word
	f.Add([]byte{1, 1, 50, 0, 0, 0, 0, 3})                        // invalidate b[3]
	f.Add([]byte{2, 0, 1, 0, 5, 0, 0, 0})                         // truncate budget to 5
	f.Add([]byte{3, 2, 2, 0, 0, 0, 0, 0, 1, 0, 9, 0, 0, 0, 0, 5}) // trap in leaf + corrupt breg
	f.Fuzz(func(t *testing.T, data []byte) {
		progs, err := faultTestPrograms()
		if err != nil {
			t.Fatal(err)
		}
		plan := planFromBytes(data)
		for _, p := range progs {
			_, err := Exec(context.Background(), Request{Program: p, Faults: plan})
			if err == nil {
				continue
			}
			var trap *emu.Trap
			if !errors.As(err, &trap) {
				t.Fatalf("%v: non-trap error from a fault plan: %v (plan %+v)", p.Kind, err, plan)
			}
		}
	})
}
