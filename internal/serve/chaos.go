package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/guard"
	"branchreg/internal/obs"
)

// ChaosPlan is the serve-layer analogue of emu.FaultPlan: a
// deterministic, seeded schedule of service-level failures — engine
// panics, added latency, worker stalls — injected into a running
// server so the supervision layer (fallback, breakers, shadow
// verification) can be exercised under test and under `brload -chaos`
// instead of waiting for a real engine bug. Every decision is a
// counter modulo an interval offset by the seed, so the same plan over
// the same admission sequence injects the same events.
type ChaosPlan struct {
	// Seed offsets every interval's phase (which Nth event fires first).
	Seed int64 `json:"seed"`
	// Target restricts panic injection to one workload's classes: it
	// matches a class exactly or its "workload/" prefix ("" = every
	// class).
	Target string `json:"target,omitempty"`
	// PanicEvery injects a panic into every Nth fused-tier execution of
	// a targeted class (0 = never). Panics fire only on the fused engine
	// — the head of the default fallback chain — modeling the bug the
	// supervision layer exists for: the aggressive engine failing while
	// the instrumented reference stays healthy.
	PanicEvery int `json:"panic_every,omitempty"`
	// PanicMax caps the total injected panics (0 = unlimited). A finite
	// cap lets a smoke run prove the breaker closes again: once the
	// budget is spent, half-open probes succeed.
	PanicMax int64 `json:"panic_max,omitempty"`
	// LatencyEvery adds Latency before every Nth execution (0 = never).
	LatencyEvery int           `json:"latency_every,omitempty"`
	Latency      time.Duration `json:"latency,omitempty"`
	// StallEvery makes a worker sleep Stall before processing every Nth
	// dequeued job (0 = never), backing up the queue so 429 behavior
	// under slowdown is exercised.
	StallEvery int           `json:"stall_every,omitempty"`
	Stall      time.Duration `json:"stall,omitempty"`
}

// ParseChaosPlan decodes the brserve -chaos flag syntax:
// "seed=7,target=sieve,panic-every=1,panic-max=8,latency-every=50,latency=5ms,stall-every=0,stall=0s".
// Durations use Go syntax; unknown keys are errors so typos fail loudly.
func ParseChaosPlan(s string) (*ChaosPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &ChaosPlan{}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad chaos term %q (want key=value)", part)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "target":
			p.Target = val
		case "panic-every":
			p.PanicEvery, err = strconv.Atoi(val)
		case "panic-max":
			p.PanicMax, err = strconv.ParseInt(val, 10, 64)
		case "latency-every":
			p.LatencyEvery, err = strconv.Atoi(val)
		case "latency":
			p.Latency, err = time.ParseDuration(val)
		case "stall-every":
			p.StallEvery, err = strconv.Atoi(val)
		case "stall":
			p.Stall, err = time.ParseDuration(val)
		default:
			return nil, fmt.Errorf("unknown chaos key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("bad chaos value %q: %v", part, err)
		}
	}
	if p.PanicEvery < 0 || p.LatencyEvery < 0 || p.StallEvery < 0 || p.PanicMax < 0 {
		return nil, fmt.Errorf("chaos intervals and caps must be >= 0")
	}
	return p, nil
}

// chaos is the armed runtime state of a plan: one injector per server.
type chaos struct {
	plan ChaosPlan

	headN  atomic.Int64 // targeted fused-tier executions seen
	latN   atomic.Int64 // executions seen by the latency injector
	stallN atomic.Int64 // jobs seen by the stall injector
	fired  atomic.Int64 // panics injected so far

	mPanics  *obs.Counter
	mLatency *obs.Counter
	mStalls  *obs.Counter
}

func newChaos(plan ChaosPlan, r *obs.Registry) *chaos {
	return &chaos{
		plan:     plan,
		mPanics:  r.Counter("serve.chaos.panics"),
		mLatency: r.Counter("serve.chaos.latency"),
		mStalls:  r.Counter("serve.chaos.stalls"),
	}
}

// due reports whether the n'th event of a seeded every-Nth schedule fires.
func (c *chaos) due(n int64, every int) bool {
	return every > 0 && (n+c.plan.Seed)%int64(every) == 0
}

// targets reports whether a class is eligible for panic injection.
func (c *chaos) targets(class string) bool {
	t := c.plan.Target
	return t == "" || class == t || strings.HasPrefix(class, t+"/")
}

// wrap layers the chaos injection between the supervisor and the real
// executor: latency applies to every execution, panics only to
// fused-tier attempts of targeted classes — so the supervisor's
// fallback sees exactly the failure it is built for, and the rescue
// tier stays healthy.
func (c *chaos) wrap(next guard.ExecFunc) guard.ExecFunc {
	return func(ctx context.Context, class string, req driver.Request) (*driver.Result, error) {
		if c.due(c.latN.Add(1), c.plan.LatencyEvery) && c.plan.Latency > 0 {
			c.mLatency.Inc()
			select {
			case <-time.After(c.plan.Latency):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if req.Loop == emu.LoopFused && c.targets(class) && c.due(c.headN.Add(1), c.plan.PanicEvery) {
			if max := c.plan.PanicMax; max == 0 || c.fired.Add(1) <= max {
				c.mPanics.Inc()
				panic(fmt.Sprintf("chaos: injected fused-engine panic (class %s, seed %d)", class, c.plan.Seed))
			}
		}
		return next(ctx, class, req)
	}
}

// maybeStall sleeps a worker before it processes a dequeued job, when due.
func (c *chaos) maybeStall() {
	if c.due(c.stallN.Add(1), c.plan.StallEvery) && c.plan.Stall > 0 {
		c.mStalls.Inc()
		time.Sleep(c.plan.Stall)
	}
}
