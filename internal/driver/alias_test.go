package driver

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// emu.LoopAdaptive survives only as a deprecated alias of emu.LoopFused
// (brserve still accepts "engine":"adaptive"). These tests pin that
// contract: a request naming the alias runs the fused engine, reports it
// as such, and stays byte-identical to the instrumented reference —
// output, status, Stats, trap kind/PC/detail, and step-budget
// Limit/Executed.

// runAliasAgainstReference executes p under emu.LoopAdaptive with the
// given budget and compares it against an instrumented run of the same
// request.
func runAliasAgainstReference(t *testing.T, p *isa.Program, input string, budget int64) {
	t.Helper()
	ref, refErr := Exec(context.Background(), Request{
		Program: p, Input: input, Loop: emu.LoopInstrumented, MaxInstructions: budget,
	})
	res, err := Exec(context.Background(), Request{
		Program: p, Input: input, Loop: emu.LoopAdaptive, MaxInstructions: budget,
	})
	if (err == nil) != (refErr == nil) {
		t.Fatalf("error divergence: adaptive=%v instrumented=%v", err, refErr)
	}
	if err != nil {
		var at, it *emu.Trap
		if errors.As(err, &at) != errors.As(refErr, &it) {
			t.Fatalf("trap-ness divergence: adaptive=%v instrumented=%v", err, refErr)
		}
		if at != nil && !reflect.DeepEqual(*at, *it) {
			t.Fatalf("trap divergence:\n adaptive: %+v\n step:     %+v", *at, *it)
		}
		return
	}
	if res.Engine != emu.EngineFused {
		t.Fatalf("engine %q, want %q", res.Engine, emu.EngineFused)
	}
	if res.Refusion.Promoted {
		t.Fatalf("deprecated Refusion field set: %+v", res.Refusion)
	}
	refEq := *ref
	refEq.Engine = res.Engine // only the engine name
	refEq.Fusion = res.Fusion // and the fusion counters may differ
	if !eqResult(*res, refEq) {
		t.Fatalf("result divergence:\n adaptive: %+v\n step:     %+v", res, ref)
	}
}

func TestAdaptiveWorkloadDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix differential is not short")
	}
	o := DefaultOptions()
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			w, kind := w, kind
			t.Run(fmt.Sprintf("%s/%v", w.Name, kind), func(t *testing.T) {
				t.Parallel()
				p, err := Compile(context.Background(), w.FullSource(), kind, o)
				if err != nil {
					t.Fatal(err)
				}
				runAliasAgainstReference(t, p, w.Input, 0)
			})
		}
	}
}

func TestAdaptiveStepBudgetTrap(t *testing.T) {
	// Step-budget traps carry identical Limit/Executed wherever the
	// budget lands: before the first stride poll, just past it, or deep
	// in the run.
	w, ok := workloads.ByName("sieve")
	if !ok {
		t.Fatal("no sieve workload")
	}
	for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
		p, err := Compile(context.Background(), w.FullSource(), kind, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{1000, 70_000, 300_000} {
			runAliasAgainstReference(t, p, w.Input, budget)
		}
	}
}

func TestAdaptiveRejectsHooksAndFaults(t *testing.T) {
	w, _ := workloads.ByName("wc")
	p, err := Compile(context.Background(), w.FullSource(), isa.Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := &emu.FaultPlan{Seed: 1, Ops: []emu.FaultOp{{Kind: emu.FaultCorruptBReg, N: 1}}}
	_, err = Exec(context.Background(), Request{Program: p, Input: w.Input,
		Loop: emu.LoopAdaptive, Faults: plan})
	if err == nil {
		t.Fatal("LoopAdaptive accepted a fault plan")
	}
	var trap *emu.Trap
	if errors.As(err, &trap) {
		t.Fatalf("fault-plan rejection should not be a trap: %v", err)
	}
}
