package driver

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// Profiling differential: attaching a BlockProfile must be invisible to
// the program — byte-identical output and identical Stats across the full
// workload suite on both machines — must keep the run on the predecoded
// fast path (a profiled fused run takes the profiled fast loop), and
// must produce flow counts that conserve (per-instruction counts sum to
// Stats.Instructions) and agree across engines.

func TestProfiledRunsMatchUnprofiled(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is not short")
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
				plain, err := Exec(context.Background(), Request{Program: p, Input: w.Input})
				if err != nil {
					t.Fatal(err)
				}
				prof := emu.NewBlockProfile(len(p.Text))
				profiled, err := Exec(context.Background(), Request{Program: p, Input: w.Input, Profile: prof})
				if err != nil {
					t.Fatal(err)
				}
				if profiled.Engine != emu.EngineFast {
					t.Fatalf("profiled run left the fast path: engine %q", profiled.Engine)
				}
				plainEq := *plain
				plainEq.Engine = profiled.Engine // only the engine name
				plainEq.Fusion = profiled.Fusion // and the fusion counters differ
				if !eqResult(plainEq, *profiled) {
					t.Fatalf("profiling changed the run:\n plain:    %+v\n profiled: %+v", plain, profiled)
				}
				var sum, taken, notTaken, penalty int64
				for _, c := range prof.Counts() {
					sum += c
				}
				if sum != profiled.Stats.Instructions {
					t.Fatalf("flow conservation broken: counts sum to %d, Stats.Instructions = %d",
						sum, profiled.Stats.Instructions)
				}
				for i := range prof.Taken {
					taken += prof.Taken[i]
					notTaken += prof.NotTaken[i]
					penalty += prof.Penalty[i]
				}
				st := &profiled.Stats
				if kind == isa.Baseline {
					want := st.UncondJumps + st.CondBranches + st.Calls + st.Returns
					if taken+notTaken != want {
						t.Fatalf("branch tallies %d+%d != executed transfers %d", taken, notTaken, want)
					}
					if penalty != 0 {
						t.Fatalf("baseline run accumulated BRM penalty %d", penalty)
					}
				} else {
					if taken != st.PrefetchHit+st.PrefetchMiss {
						t.Fatalf("taken tallies %d != taken transfers %d", taken, st.PrefetchHit+st.PrefetchMiss)
					}
					if notTaken != st.CondBranches-st.CondTaken {
						t.Fatalf("not-taken tallies %d != untaken conditionals %d",
							notTaken, st.CondBranches-st.CondTaken)
					}
					var wantPenalty int64
					for d := 0; d < emu.MinPrefetchDist; d++ {
						wantPenalty += int64(emu.MinPrefetchDist-d) * st.DistHist[d]
					}
					if penalty != wantPenalty {
						t.Fatalf("penalty %d != Figure 9 penalty %d", penalty, wantPenalty)
					}
				}
			})
		}
	}
}

func TestProfileEnginesAgree(t *testing.T) {
	// The fast loop's inlined profile updates and the instrumented loop's
	// profBranch/jumpTo updates must fill identical arrays on every cell.
	// A profiled fused run is a profiled fast run: it must say so, and
	// fill the same arrays.
	if testing.Short() {
		t.Skip("full-suite differential is not short")
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
				profile := func(loop emu.LoopMode) (*emu.BlockProfile, string) {
					prof := emu.NewBlockProfile(len(p.Text))
					res, err := Exec(context.Background(), Request{Program: p, Input: w.Input,
						Loop: loop, Profile: prof})
					if err != nil {
						t.Fatal(err)
					}
					return prof, res.Engine
				}
				inst, _ := profile(emu.LoopInstrumented)
				if fast, _ := profile(emu.LoopFast); !reflect.DeepEqual(fast, inst) {
					t.Fatal("fast and instrumented engines disagree on the profile")
				}
				fused, engine := profile(emu.LoopFused)
				if engine != emu.EngineFast {
					t.Fatalf("profiled LoopFused run: engine %q, want %q", engine, emu.EngineFast)
				}
				if !reflect.DeepEqual(fused, inst) {
					t.Fatal("profiled LoopFused and instrumented runs disagree on the profile")
				}
			})
		}
	}
}

func TestEngineRecordedOnAutoFallback(t *testing.T) {
	// Satellite fix: LoopAuto falls back to the instrumented loop when
	// hooks or faults are present — the run must say so.
	w, ok := workloads.ByName("sieve")
	if !ok {
		t.Fatal("no workload sieve")
	}
	p, err := Compile(context.Background(), w.FullSource(), isa.Baseline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Exec(context.Background(), Request{Program: p, Input: w.Input})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Engine != emu.EngineFused {
		t.Fatalf("plain auto run: engine %q, want %q", auto.Engine, emu.EngineFused)
	}

	m, err := emu.New(p, w.Input)
	if err != nil {
		t.Fatal(err)
	}
	m.Hooks.Fetch = func(addr int32) {}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Engine() != emu.EngineInstrumented {
		t.Fatalf("hooked auto run: engine %q, want %q", m.Engine(), emu.EngineInstrumented)
	}
}
