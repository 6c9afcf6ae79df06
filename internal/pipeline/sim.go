package pipeline

import (
	"fmt"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// SimResult is the outcome of a dynamic pipeline simulation.
type SimResult struct {
	Cycles       int64
	Instructions int64
	BubbleCycles int64
	Stats        emu.Stats
	Output       string
	Status       int32
}

// CPI returns cycles per instruction.
func (r *SimResult) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// Simulate executes the linked program and charges pipeline bubbles per
// dynamic event, in contrast to the paper's aggregate model (§7), which
// charges every executed transfer:
//
//   - baseline machine: a TAKEN transfer costs Stages-2 bubbles (the delay
//     slot hides one fetch); an untaken conditional branch costs nothing —
//     the sequential fetch was correct. This is where the simulation is
//     finer-grained than the paper's model.
//   - branch-register machine: a conditional transfer costs Stages-3
//     (instruction-register selection waits on the compare's execute); a
//     taken transfer whose target calc is closer than the Figure 9
//     distance stalls the remaining cycles.
//
// Every one of those events is already counted in emu.Stats, so the
// program runs once on the fast hook-free engine and the bubbles are
// derived from its counters (Model.SimBubbles). The numbers are the ones
// a per-event transfer hook on the instrumented loop sums, cell for cell.
// That includes a compare-selected transfer to the halt address: it
// counts in Stats.CondBranches and pays the Stages-3 selection delay like
// any other conditional, and emu's Transfer hook reports it too.
//
// On the branch-register machine the simulation charges exactly what
// Model.BRMCycles charges, so BRM simulation equals the model by
// construction (the 0.00% rows of the validation table). Comparing
// Simulate with Model.BaselineCycles quantifies how much the paper's
// every-transfer charge overstates the baseline penalty.
func Simulate(p *isa.Program, input string, stages int) (*SimResult, error) {
	return SimulateWith(p, input, Model{Stages: stages})
}

// SimulateWith runs the dynamic simulation under an explicit hardware
// model (pipeline depth, fast-compare).
func SimulateWith(p *isa.Program, input string, mod Model) (*SimResult, error) {
	m, err := emu.New(p, input)
	if err != nil {
		return nil, err
	}
	status, err := m.Run()
	if err != nil {
		return nil, err
	}
	res := &SimResult{
		Stats:        m.Stats,
		Instructions: m.Stats.Instructions,
		BubbleCycles: mod.SimBubbles(p.Kind, &m.Stats),
		Output:       m.Output(),
		Status:       status,
	}
	res.Cycles = res.Instructions + res.BubbleCycles
	return res, nil
}

// SimBubbles returns the per-event pipeline bubbles of a run on the
// given machine, derived from its counters (see Simulate): on the
// baseline, Stages-2 per taken transfer; on the branch-register machine,
// BRMCondDelay per conditional transfer plus the Figure 9 late-calc
// penalty.
func (m Model) SimBubbles(kind isa.Kind, s *emu.Stats) int64 {
	if kind == isa.Baseline {
		return m.BaselineTransferDelay() * (s.UncondJumps + s.CondTaken + s.Calls + s.Returns)
	}
	return m.BRMCondDelay()*s.CondBranches + PrefetchPenalty(s)
}

// ModelVsSim compares the paper's aggregate model against the dynamic
// simulation for one program on one machine.
type ModelVsSim struct {
	Stages        int
	ModelCycles   int64
	SimCycles     int64
	OverchargePct float64 // how much the model exceeds the simulation
}

// CompareStats runs both the analytic model and the dynamic simulation
// over one run's counters, which are all either needs.
func CompareStats(kind isa.Kind, s *emu.Stats, stages int) *ModelVsSim {
	mod := Model{Stages: stages}
	var mc int64
	if kind == isa.Baseline {
		mc = mod.BaselineCycles(s)
	} else {
		mc = mod.BRMCycles(s)
	}
	sc := s.Instructions + mod.SimBubbles(kind, s)
	out := &ModelVsSim{Stages: stages, ModelCycles: mc, SimCycles: sc}
	if sc > 0 {
		out.OverchargePct = 100 * float64(mc-sc) / float64(sc)
	}
	return out
}

func (c *ModelVsSim) String() string {
	return fmt.Sprintf("%d stages: model %d cycles, simulated %d cycles (model +%.2f%%)",
		c.Stages, c.ModelCycles, c.SimCycles, c.OverchargePct)
}
