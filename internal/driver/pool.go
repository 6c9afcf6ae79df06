package driver

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/obs"
)

// The emulator's memory image is isa.MemBytes (4 MiB) per run. An
// experiment suite executes hundreds of runs across exp.Runner's worker
// pool, so allocating a fresh image each time dominates the allocation
// profile and keeps the garbage collector busy reclaiming identical
// buffers. The pool recycles them; buffers are zeroed on release so a
// pooled Get is indistinguishable from a fresh allocation.

var memPool = sync.Pool{
	New: func() interface{} {
		mPoolFresh.Inc()
		b := make([]byte, isa.MemBytes)
		return &b
	},
}

// borrowMem returns a zeroed isa.MemBytes buffer. The *[]byte indirection
// keeps the slice header itself off the heap on Put.
func borrowMem() *[]byte {
	mPoolGets.Inc()
	return memPool.Get().(*[]byte)
}

// releaseMem zeroes the buffer and returns it to the pool.
func releaseMem(b *[]byte) {
	start := time.Now()
	clear(*b)
	mPoolZeroNS.Observe(time.Since(start).Nanoseconds())
	mPoolPuts.Inc()
	memPool.Put(b)
}

// execute runs a linked program with pooled emulator memory under the
// Request's execution fields (Input, Faults, Loop, OutputHint,
// MaxInstructions, Profile). Every execution path funnels through here,
// so the pool, the metrics, and the trap accounting behave identically
// for Exec and Cache.Exec.
func execute(ctx context.Context, p *isa.Program, req *Request) (*Result, error) {
	mem := borrowMem()
	defer releaseMem(mem)
	m, err := emu.NewWithMem(p, req.Input, *mem)
	if err != nil {
		return nil, err
	}
	m.SetFaultPlan(req.Faults)
	m.Loop = req.Loop
	m.Prof = req.Profile
	m.ReserveOutput(req.OutputHint)
	if req.MaxInstructions > 0 {
		m.MaxInstructions = req.MaxInstructions
	}
	start := time.Now()
	status, err := m.RunContext(ctx)
	runNS := time.Since(start).Nanoseconds()
	mRuns.Inc()
	mRunNS.Observe(runNS)
	switch m.Engine() {
	case emu.EngineFused:
		mEngineFused.Inc()
		mFusedBlocks.Add(m.Fusion.Blocks)
		mFusedSupers.Add(m.Fusion.Fused)
		mFusedBails.Add(m.Fusion.Bails)
	case emu.EngineFast:
		mEngineFast.Inc()
	case emu.EngineInstrumented:
		mEngineInst.Inc()
	}
	mEmuInsts.Add(m.Stats.Instructions)
	mEmuTransfers.Add(m.Stats.Transfers())
	if err != nil {
		var t *emu.Trap
		if errors.As(err, &t) {
			// Trap kinds are kebab-case ("oob-load"); metric segments are
			// [a-z0-9_], so the hyphens map to underscores.
			obs.Default.Counter("emu.trap." + strings.ReplaceAll(t.Kind.String(), "-", "_")).Inc()
		}
		return nil, err
	}
	return &Result{Output: m.Output(), Status: status, Stats: m.Stats,
		Engine: m.Engine(), Fusion: m.Fusion, Timing: Timing{RunNS: runNS}}, nil
}
