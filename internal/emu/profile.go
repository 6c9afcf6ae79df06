package emu

// BlockProfile accumulates the control-flow counts of one run with costs
// paid only at transfers of control, never per instruction — the fast
// loop's profiling contract. Per-instruction execution counts are not
// stored; they are reconstructed after the run by flow conservation
// (Counts), which is what lets the predecoded fast loop stay fast while
// profiled: straight-line execution touches no profile state at all.
//
// The arrays are indexed by Text index (one slot per instruction):
//
//   - Arrive[i] counts non-sequential entries to i (taken transfers
//     landing on i, plus one for the program entry point);
//   - Depart[i] counts non-sequential exits from i (taken transfers
//     leaving the instruction that applied them — on the baseline
//     machine that is the delay-slot instruction — plus the final
//     instruction of the run);
//   - Taken[i]/NotTaken[i] tally branch outcomes at branch site i
//     (unconditional transfers count as taken; the program-exit
//     transfer is not a workload transfer and is not tallied,
//     mirroring Stats);
//   - Penalty[i] accumulates the Figure 9 late-calculation stall
//     cycles charged to BRM transfer site i (always zero on the
//     baseline machine, whose cost is uniform per transfer).
//
// A profile from a run that ended in a trap charges the faulting
// instruction as executed (matching Stats.Instructions, which counts an
// instruction when it begins); a run cut off by a step-budget trap or
// context cancellation may over-count the next-to-run instruction by one.
type BlockProfile struct {
	Arrive   []int64
	Depart   []int64
	Taken    []int64
	NotTaken []int64
	Penalty  []int64
}

// NewBlockProfile returns a profile sized for a program with textLen
// instructions (len(isa.Program.Text)).
func NewBlockProfile(textLen int) *BlockProfile {
	return &BlockProfile{
		Arrive:   make([]int64, textLen),
		Depart:   make([]int64, textLen),
		Taken:    make([]int64, textLen),
		NotTaken: make([]int64, textLen),
		Penalty:  make([]int64, textLen),
	}
}

// Counts reconstructs per-instruction execution counts by flow
// conservation: control reaches instruction i either sequentially from
// i-1 (unless i-1 departed) or by arriving non-sequentially at i, so
//
//	count[i] = count[i-1] - Depart[i-1] + Arrive[i]
//
// For a completed run, the counts sum to Stats.Instructions.
func (p *BlockProfile) Counts() []int64 {
	counts := make([]int64, len(p.Arrive))
	prev := int64(0)
	for i := range counts {
		c := prev + p.Arrive[i]
		if i > 0 {
			c -= p.Depart[i-1]
		}
		if c < 0 {
			c = 0 // incomplete profile (cancelled run); clamp, don't lie
		}
		counts[i] = c
		prev = c
	}
	return counts
}

// Engine names recorded by RunContext (satellite of the observability
// layer: LoopAuto's fallback to the instrumented loop used to be
// silent; now every run names the engine that actually executed it).
const (
	EngineFast         = "fast"
	EngineInstrumented = "instrumented"
	EngineFused        = "fused"
)

// Engine returns the name of the engine the last RunContext call used
// ("" before any run).
func (m *Machine) Engine() string { return m.engine }

// The profiled fast loops' hook methods (fastloop_prof.go). All are
// unconditional — the profiled twins run only with a non-nil profile —
// and small enough to inline, so the twins' hot paths are plain array
// increments.

// taken tallies a taken transfer at branch site pc.
func (p *BlockProfile) taken(pc int) { p.Taken[pc]++ }

// notTaken tallies an untaken conditional at branch site pc.
func (p *BlockProfile) notTaken(pc int) { p.NotTaken[pc]++ }

// edge records a non-sequential control transfer from -> to.
func (p *BlockProfile) edge(from, to int) {
	p.Depart[from]++
	p.Arrive[to]++
}

// prefetch charges the Figure 9 late-calculation penalty for a taken BRM
// transfer whose target was computed dist instructions earlier.
func (p *BlockProfile) prefetch(pc int, dist int64) {
	if dist >= 0 && dist < MinPrefetchDist {
		p.Penalty[pc] += MinPrefetchDist - dist
	}
}

// profBranch tallies a branch outcome at the current pc (instrumented
// loop; the fast loops inline the equivalent updates).
func (m *Machine) profBranch(taken bool) {
	p := m.Prof
	if p == nil {
		return
	}
	if taken {
		p.Taken[m.pc]++
	} else {
		p.NotTaken[m.pc]++
	}
}
