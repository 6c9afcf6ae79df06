package exp

import "branchreg/internal/obs"

// Pool-level metric handles (see internal/driver/metrics.go for the
// naming convention). Failure counters are per-kind and created on
// demand in newJobError; everything else is resolved once here.
var (
	mJobs       = obs.Default.Counter("exp.jobs")
	mJobWaitNS  = obs.Default.Histogram("exp.job_wait_ns")
	mJobRunNS   = obs.Default.Histogram("exp.job_run_ns")
	mWorkerBusy = obs.Default.Counter("exp.worker_busy_ns")
	mPoolWall   = obs.Default.Counter("exp.pool_wall_ns")
	mPoolSize   = obs.Default.Gauge("exp.pool_workers")

	// Emulations the studies share: fetch streams recorded once per
	// program and replayed once per cache-study job, and validation runs
	// shared across pipeline depths.
	mTraceRecorded        = obs.Default.Counter("exp.fetch_trace.recorded")
	mTraceReplayed        = obs.Default.Counter("exp.fetch_trace.replayed")
	mValidationEmulations = obs.Default.Counter("exp.validation.emulations")
)
