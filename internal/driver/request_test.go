package driver

import (
	"context"
	"errors"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// The Request API contract: every Request form of one job — source or
// pre-linked program, with or without a cache — produces the same
// Result, the fingerprint separates every request that could produce a
// different Result (the brserve coalescing key), and the per-request
// step budget surfaces as the typed step-budget trap.

// TestExecMatchesDeprecatedWrappers runs the Request forms that replaced
// the removed Run/RunProgram/RunProgramContext/RunProgramWith wrappers.
func TestExecMatchesDeprecatedWrappers(t *testing.T) {
	w, _ := workloads.ByName("wc")
	o := DefaultOptions()
	ctx := context.Background()

	want, err := Exec(ctx, Request{Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if want.Timing.RunNS <= 0 || want.Timing.CompileNS <= 0 {
		t.Errorf("Exec timing not recorded: %+v", want.Timing)
	}

	p, err := Compile(ctx, w.FullSource(), isa.BranchReg, o)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	for name, run := range map[string]func() (*Result, error){
		"Exec/source": func() (*Result, error) {
			return Exec(ctx, Request{Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: o})
		},
		"Exec/program": func() (*Result, error) {
			return Exec(context.Background(), Request{Program: p, Input: w.Input})
		},
		"Exec/program+faults": func() (*Result, error) {
			return Exec(ctx, Request{Program: p, Input: w.Input, Faults: nil})
		},
		"Exec/program+run-fields": func() (*Result, error) {
			return Exec(ctx, Request{Program: p, Input: w.Input, OutputHint: 0, Loop: emu.LoopAuto, Profile: nil})
		},
		"Cache.Exec/bounded": func() (*Result, error) {
			return NewBoundedCache(16<<20).Exec(ctx, Request{Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: o})
		},
		"Cache.Exec": func() (*Result, error) {
			return c.Exec(ctx, Request{Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: o})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !eqResult(*res, *want) {
			t.Errorf("%s diverged from Exec:\n got: %+v\nwant: %+v", name, res, want)
		}
	}
}

func TestExecValidates(t *testing.T) {
	ctx := context.Background()
	if _, err := Exec(ctx, Request{}); err == nil {
		t.Error("empty request did not fail")
	}
	if _, err := Exec(ctx, Request{Source: "func main() int { return 0; }", MaxInstructions: -1}); err == nil {
		t.Error("negative MaxInstructions did not fail")
	}
	bad := DefaultOptions()
	bad.AlignWords = -1
	if _, err := Exec(ctx, Request{Source: "func main() int { return 0; }", Options: bad}); err == nil {
		t.Error("invalid Options did not fail")
	}
}

func TestExecStepBudgetTrap(t *testing.T) {
	w, _ := workloads.ByName("sieve")
	res, err := Exec(context.Background(), Request{
		Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input,
		Options: DefaultOptions(), MaxInstructions: 1000,
	})
	if err == nil {
		t.Fatalf("budget 1000 did not trap (ran %d insts)", res.Stats.Instructions)
	}
	var trap *emu.Trap
	if !errors.As(err, &trap) || trap.Kind != emu.TrapStepBudget {
		t.Fatalf("budget error = %v, want a step-budget trap", err)
	}
	if trap.Limit != 1000 || trap.Executed < 1000 {
		t.Errorf("trap context limit=%d executed=%d, want limit 1000 and executed >= limit", trap.Limit, trap.Executed)
	}
}

// TestRequestFingerprintSeparatesResults is the coalescing contract:
// two Requests may share one execution only when their fingerprints are
// equal, so every field that can change the Result must split the
// fingerprint — in particular Loop and Faults, which leave the compiled
// program untouched.
func TestRequestFingerprintSeparatesResults(t *testing.T) {
	base := Request{Source: "func main() int { return 0; }", Kind: isa.BranchReg, Options: DefaultOptions()}
	mutations := map[string]func(*Request){
		"Source":          func(r *Request) { r.Source += " " },
		"Kind":            func(r *Request) { r.Kind = isa.Baseline },
		"Input":           func(r *Request) { r.Input = "x" },
		"Options":         func(r *Request) { r.Options.BRM.BranchRegs = 4 },
		"Loop":            func(r *Request) { r.Loop = emu.LoopInstrumented },
		"Faults":          func(r *Request) { r.Faults = &emu.FaultPlan{Seed: 1, Ops: []emu.FaultOp{{Kind: emu.FaultForceTrap}}} },
		"MaxInstructions": func(r *Request) { r.MaxInstructions = 500 },
		"Profile":         func(r *Request) { r.Profile = emu.NewBlockProfile(4) },
	}
	for name, mutate := range mutations {
		changed := base
		mutate(&changed)
		if changed.Fingerprint() == base.Fingerprint() {
			t.Errorf("Requests differing only in %s share a fingerprint (would coalesce)", name)
		}
	}
	// Two fault plans with different contents must also split.
	a, b := base, base
	a.Faults = &emu.FaultPlan{Seed: 1, Ops: []emu.FaultOp{{Kind: emu.FaultForceTrap, N: 5}}}
	b.Faults = &emu.FaultPlan{Seed: 1, Ops: []emu.FaultOp{{Kind: emu.FaultForceTrap, N: 6}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Requests with different fault plans share a fingerprint")
	}
	// OutputHint is an allocation hint, not behavior: it must NOT split
	// the fingerprint, or the server would never coalesce hinted requests.
	hinted := base
	hinted.OutputHint = 4096
	if hinted.Fingerprint() != base.Fingerprint() {
		t.Error("OutputHint split the fingerprint; it cannot affect the Result")
	}
	// Identical requests must coalesce.
	dup := base
	if dup.Fingerprint() != base.Fingerprint() {
		t.Error("identical Requests have different fingerprints")
	}
	// NoCache controls whether the result cache is consulted, not what
	// the execution produces: it must NOT split the fingerprint, or a
	// no_cache request would stop coalescing with its cached twins.
	nc := base
	nc.NoCache = true
	if nc.Fingerprint() != base.Fingerprint() {
		t.Error("NoCache split the fingerprint; it cannot affect the Result")
	}
}

func TestCacheExecSingleCompile(t *testing.T) {
	w, _ := workloads.ByName("wc")
	c := NewCache()
	req := Request{Source: w.FullSource(), Kind: isa.Baseline, Input: w.Input, Options: DefaultOptions()}
	for i := 0; i < 3; i++ {
		if _, err := c.Exec(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 1 miss and 2 hits", st)
	}
}
