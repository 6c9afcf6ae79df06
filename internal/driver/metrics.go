package driver

import "branchreg/internal/obs"

// Package-level metric handles, resolved once so the hot paths pay only
// an atomic add (obs.Registry lookups take a mutex). Everything lands in
// obs.Default, which `brbench -metrics` prints and cmd/benchrecord
// snapshots.
//
// Naming: driver.* for tool-chain activity, emu.* for dynamic execution
// totals aggregated here on the driver side (the emulator itself never
// imports obs; see the obs package doc).
var (
	mCompiles  = obs.Default.Counter("driver.compiles")
	mCompileNS = obs.Default.Histogram("driver.compile_ns")

	mRuns        = obs.Default.Counter("driver.runs")
	mRunNS       = obs.Default.Histogram("driver.run_ns")
	mEngineFast  = obs.Default.Counter("driver.engine.fast")
	mEngineInst  = obs.Default.Counter("driver.engine.instrumented")
	mEngineFused = obs.Default.Counter("driver.engine.fused")

	mFusedBlocks = obs.Default.Counter("emu.fused.blocks")
	mFusedSupers = obs.Default.Counter("emu.fused.superinsts")
	mFusedBails  = obs.Default.Counter("emu.fused.bails")

	mCacheHits   = obs.Default.Counter("driver.cache.hits")
	mCacheMisses = obs.Default.Counter("driver.cache.misses")

	mPoolGets   = obs.Default.Counter("driver.pool.gets")
	mPoolPuts   = obs.Default.Counter("driver.pool.puts")
	mPoolFresh  = obs.Default.Counter("driver.pool.fresh")
	mPoolZeroNS = obs.Default.Histogram("driver.pool.zero_ns")

	mEmuInsts     = obs.Default.Counter("emu.instructions")
	mEmuTransfers = obs.Default.Counter("emu.transfers")
)

// PoolStats is a snapshot of the emulator-memory pool counters. Gets and
// Puts are deterministic for a given experiment spec; Fresh (and hence
// Reused) depends on garbage-collector timing, so reports treat it as an
// environment observation like wall-clock phase times.
type PoolStats struct {
	Gets  int64 `json:"gets"`
	Puts  int64 `json:"puts"`
	Fresh int64 `json:"fresh"`
}

// Reused counts pool Gets served by a recycled buffer.
func (p PoolStats) Reused() int64 { return p.Gets - p.Fresh }

// Sub returns the delta p - earlier, for measuring one suite's traffic.
func (p PoolStats) Sub(earlier PoolStats) PoolStats {
	return PoolStats{
		Gets:  p.Gets - earlier.Gets,
		Puts:  p.Puts - earlier.Puts,
		Fresh: p.Fresh - earlier.Fresh,
	}
}

// PoolStatsNow reads the current process-wide pool counters.
func PoolStatsNow() PoolStats {
	return PoolStats{
		Gets:  mPoolGets.Value(),
		Puts:  mPoolPuts.Value(),
		Fresh: mPoolFresh.Value(),
	}
}
