package pipeline

import (
	"context"
	"testing"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

const simProgram = `
int main(void) {
    int s = 0;
    for (int i = 0; i < 200; i++) {
        if (i % 3 == 0) s += i;
        else s -= 1;
    }
    return s & 255;
}
`

func compileFor(t *testing.T, kind isa.Kind) *isa.Program {
	t.Helper()
	p, err := driver.Compile(context.Background(), simProgram, kind, driver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSimulateBaseline(t *testing.T) {
	p := compileFor(t, isa.Baseline)
	sim, err := Simulate(p, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cycles <= sim.Instructions {
		t.Errorf("baseline must have bubbles: %d cycles, %d instructions",
			sim.Cycles, sim.Instructions)
	}
	if sim.CPI() <= 1.0 || sim.CPI() > 2.0 {
		t.Errorf("implausible CPI %.3f", sim.CPI())
	}
	// The aggregate model charges untaken conditionals too, so it must be
	// at least the simulated count.
	cmp := CompareStats(p.Kind, &sim.Stats, 3)
	if cmp.ModelCycles < cmp.SimCycles {
		t.Errorf("model (%d) below simulation (%d): the every-transfer charge should be an upper bound",
			cmp.ModelCycles, cmp.SimCycles)
	}
	if cmp.OverchargePct < 0 {
		t.Errorf("overcharge %.2f%%", cmp.OverchargePct)
	}
}

func TestSimulateBRM(t *testing.T) {
	p := compileFor(t, isa.BranchReg)
	sim3, err := Simulate(p, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	// At 3 stages the BRM pays only late-calc penalties, which our
	// scheduler mostly avoids: CPI should be very close to 1.
	if sim3.CPI() > 1.05 {
		t.Errorf("BRM 3-stage CPI = %.3f, expected near 1.0", sim3.CPI())
	}
	// At 4 stages conditional transfers cost one cycle.
	sim4, err := Simulate(p, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if sim4.Cycles <= sim3.Cycles {
		t.Errorf("deeper pipeline should cost BRM cycles: %d vs %d", sim4.Cycles, sim3.Cycles)
	}
	// The BRM model matches the simulation exactly: both charge N-3 per
	// conditional and the Figure 9 penalty per late calc.
	cmp := CompareStats(p.Kind, &sim4.Stats, 4)
	if cmp.ModelCycles != cmp.SimCycles {
		t.Errorf("BRM model (%d) and simulation (%d) disagree", cmp.ModelCycles, cmp.SimCycles)
	}
	if cmp.String() == "" {
		t.Error("empty comparison string")
	}
}

func TestSimulatedSpeedupHolds(t *testing.T) {
	base := compileFor(t, isa.Baseline)
	brm := compileFor(t, isa.BranchReg)
	for _, stages := range []int{3, 4, 5} {
		sb, err := Simulate(base, "", stages)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Simulate(brm, "", stages)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Output != sr.Output || sb.Status != sr.Status {
			t.Fatalf("machines disagree under simulation")
		}
		if sr.Cycles >= sb.Cycles {
			t.Errorf("%d stages: BRM (%d cycles) not faster than baseline (%d) even in the finer simulation",
				stages, sr.Cycles, sb.Cycles)
		}
	}
}

func TestSimulateFastCompare(t *testing.T) {
	o := driver.DefaultOptions()
	o.BRM.FastCompare = true
	p, err := driver.Compile(context.Background(), simProgram, isa.BranchReg, o)
	if err != nil {
		t.Fatal(err)
	}
	normal := compileFor(t, isa.BranchReg)
	// At 4 stages the fast compare removes the N-3 conditional bubble; the
	// simulation must show fewer bubbles per conditional. (Simulate's
	// model parameter describes the hardware, so pass FastCompare.)
	simN, err := Simulate(normal, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := emuRunFast(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m >= simN.Cycles {
		t.Errorf("fast compare (%d cycles) not faster than normal (%d) at 4 stages", m, simN.Cycles)
	}
}

// emuRunFast simulates with the fast-compare hardware model.
func emuRunFast(p *isa.Program, stages int) (int64, error) {
	sim, err := SimulateWith(p, "", Model{Stages: stages, FastCompare: true})
	if err != nil {
		return 0, err
	}
	return sim.Cycles, nil
}

// hookSimCycles is the per-event simulation as a transfer hook on the
// instrumented loop, charging each model's bubbles event by event. It is
// the reference Simulate's counter-derived cycles must equal.
func hookSimCycles(t *testing.T, p *isa.Program, input string, mods []Model) []int64 {
	t.Helper()
	m, err := emu.New(p, input)
	if err != nil {
		t.Fatal(err)
	}
	bubbles := make([]int64, len(mods))
	m.Hooks.Transfer = func(tk emu.TransferKind, taken bool, dist int64) {
		for i, mod := range mods {
			if p.Kind == isa.Baseline {
				if taken {
					bubbles[i] += mod.BaselineTransferDelay()
				}
				continue
			}
			if tk == emu.TransferCond {
				bubbles[i] += mod.BRMCondDelay()
			}
			if taken && dist >= 0 && dist < int64(emu.MinPrefetchDist) {
				bubbles[i] += int64(emu.MinPrefetchDist) - dist
			}
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Engine() != emu.EngineInstrumented {
		t.Fatalf("hooked run used the %s engine", m.Engine())
	}
	out := make([]int64, len(mods))
	for i := range mods {
		out[i] = m.Stats.Instructions + bubbles[i]
	}
	return out
}

// TestSimulateMatchesTransferHook is the differential check behind the
// counter-derived simulation: on every workload and both machines, at
// 3, 4 and 5 stages and with the §9 fast compare, Simulate's cycles
// equal the per-event transfer-hook sums.
func TestSimulateMatchesTransferHook(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs all 19x2 cells on the instrumented loop")
	}
	mods := []Model{{Stages: 3}, {Stages: 4}, {Stages: 5}, {Stages: 4, FastCompare: true}}
	for _, w := range workloads.All() {
		for _, kind := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			p, err := driver.Compile(context.Background(), w.FullSource(), kind, driver.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := hookSimCycles(t, p, w.Input, mods)
			for i, mod := range mods {
				sim, err := SimulateWith(p, w.Input, mod)
				if err != nil {
					t.Fatal(err)
				}
				if sim.Cycles != want[i] {
					t.Errorf("%s on %v, %+v: Simulate %d cycles, transfer hook %d",
						w.Name, kind, mod, sim.Cycles, want[i])
				}
			}
		}
	}
}

// TestCondExitCharged pins the one transfer the old hook-based
// simulation missed: a compare-selected transfer to the halt address.
// It counts in Stats.CondBranches, so it pays the Stages-3 selection
// delay like any conditional, and the transfer hook reports it too.
func TestCondExitCharged(t *testing.T) {
	f := isa.NewFunction("main", isa.BranchReg)
	f.Emit(isa.Instr{Op: isa.OpMovBr, Rd: 3, BSrc: isa.RABr}) // b[3] = halt address
	f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: 1})
	f.Emit(isa.Instr{Op: isa.OpCmpBr, Cond: isa.CondNE, Rs1: 2, UseImm: true, Imm: 0, BSrc: 3})
	f.Emit(isa.Instr{Op: isa.OpNop, BR: isa.RABr}) // taken: exit
	f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	p := &isa.Program{Kind: isa.BranchReg, Funcs: []*isa.Function{f}}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	mods := []Model{{Stages: 3}, {Stages: 4}, {Stages: 5}}
	want := hookSimCycles(t, p, "", mods)
	for i, mod := range mods {
		sim, err := SimulateWith(p, "", mod)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Stats.CondBranches != 1 || sim.Stats.CondTaken != 1 {
			t.Fatalf("stats %+v: want one taken conditional", sim.Stats)
		}
		if got := sim.Cycles - sim.Instructions; got != mod.BRMCondDelay() {
			t.Errorf("%+v: %d bubbles, want %d", mod, got, mod.BRMCondDelay())
		}
		if sim.Cycles != want[i] {
			t.Errorf("%+v: Simulate %d cycles, transfer hook %d", mod, sim.Cycles, want[i])
		}
	}
}
