package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// LoadSpec configures one load-generation run against a brserve
// endpoint: Clients concurrent workers sweep the built-in workload
// suite on both machines, round-robin, until Requests successful
// responses have been collected. 429 answers are retried with backoff
// and counted, not failed.
type LoadSpec struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Clients is the number of concurrent requesters (default 8).
	Clients int
	// Requests is the total number of successful responses to collect
	// across all clients (default 2 × the workload matrix).
	Requests int
	// Machines restricts the sweep (default: baseline and branchreg).
	Machines []string
	// Tenant is sent on every request.
	Tenant string
	// Verify, when set, is called with every 200 response; an error
	// counts as a failure. Use it for the differential oracle.
	Verify func(workload, machine string, resp *RunResponse) error
	// Client overrides the HTTP client (default: http.DefaultClient).
	Client *http.Client
	// MaxBackoff caps one 429/503 retry sleep (default 1s). Benchmarks
	// set it low (~20ms): honoring a server's full Retry-After would
	// measure the backoff policy, not the server's saturation throughput.
	MaxBackoff time.Duration
	// DrainRetryWindow bounds how long a client keeps retrying 503s
	// (a draining or restarting server) before failing the request
	// (default 5s).
	DrainRetryWindow time.Duration
	// TracePropagate sends a brload-generated X-Request-Id on every
	// request and fails any response that does not echo it (header and
	// body). Successful responses' server-reported phase timings are
	// additionally aggregated into LoadResult.Phases, so a load run ends
	// with a queue/compile/run decomposition of its latency.
	TracePropagate bool
}

// LoadFailure records one failed request for diagnosis.
type LoadFailure struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Code     int    `json:"code,omitempty"`
	Err      string `json:"err"`
}

// LoadResult aggregates one load run.
type LoadResult struct {
	Requests   int `json:"requests"`
	Errors     int `json:"errors"`
	Server5xx  int `json:"server_5xx"`
	Retries429 int `json:"retries_429"`
	Retries503 int `json:"retries_503"`
	Coalesced  int `json:"coalesced"`
	// Cached counts successful responses the server answered from its
	// deterministic result cache (response `cached: true`) — the warm
	// fraction of the run.
	Cached    int     `json:"cached"`
	P50NS     int64   `json:"p50_ns"`
	P99NS     int64   `json:"p99_ns"`
	WallNS    int64   `json:"wall_ns"`
	ReqPerSec float64 `json:"req_s"`
	// Engines counts the verified successful responses by the engine
	// tier that served them ("fused", "instrumented", ...), so a
	// load run records which tiers actually carried the traffic — a
	// run rescued mostly by fallback tiers is a different result than
	// one served by the chain head, even at the same throughput.
	Engines map[string]int `json:"engines,omitempty"`
	// Failures holds the first few failed requests (capped) so a failing
	// run is diagnosable from the result alone.
	Failures []LoadFailure `json:"failures,omitempty"`
	// Phases holds p50/p99 of the server-reported per-phase timings of
	// successful responses, keyed "queue", "compile", "run", "total".
	// Filled only when TracePropagate is set.
	Phases map[string]PhaseStats `json:"phases,omitempty"`
}

// PhaseStats summarizes one request phase's server-reported wall clock.
type PhaseStats struct {
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
}

// loadCell is one (workload, machine) matrix cell.
type loadCell struct {
	workload string
	machine  string
}

// loadMatrix builds the request matrix for a spec.
func loadMatrix(spec *LoadSpec) []loadCell {
	machines := spec.Machines
	if len(machines) == 0 {
		machines = []string{isa.Baseline.String(), isa.BranchReg.String()}
	}
	var cells []loadCell
	for _, w := range workloads.All() {
		for _, m := range machines {
			cells = append(cells, loadCell{workload: w.Name, machine: m})
		}
	}
	return cells
}

// RunLoad drives the load described by spec and aggregates latencies.
// It returns an error only for setup problems (an unreachable server);
// request-level failures are reported in the result.
func RunLoad(ctx context.Context, spec LoadSpec) (*LoadResult, error) {
	if spec.Clients <= 0 {
		spec.Clients = 8
	}
	cells := loadMatrix(&spec)
	if spec.Requests <= 0 {
		spec.Requests = 2 * len(cells)
	}
	client := spec.Client
	if client == nil {
		client = http.DefaultClient
	}

	// Fail fast if the server is not there at all.
	hc, err := client.Get(spec.BaseURL + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("serve: load target unreachable: %w", err)
	}
	io.Copy(io.Discard, hc.Body)
	hc.Body.Close()

	var (
		next       atomic.Int64 // next matrix index to issue
		done       atomic.Int64 // successful responses collected
		retries    atomic.Int64
		retries503 atomic.Int64
		coalesced  atomic.Int64
		cached     atomic.Int64
		server5xx  atomic.Int64

		mu        sync.Mutex
		latencies []int64
		failures  []LoadFailure
		engines   = map[string]int{}
		phases    = map[string][]int64{}
	)
	// The run ID namespaces this run's propagated request IDs, so two
	// concurrent brload runs against one server stay distinguishable in
	// its flight recorder.
	runID := strconv.FormatUint(rand.Uint64(), 16)
	const maxFailures = 16
	fail := func(c loadCell, code int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < maxFailures {
			failures = append(failures, LoadFailure{Workload: c.workload, Machine: c.machine, Code: code, Err: err.Error()})
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCount := atomic.Int64{}
	for g := 0; g < spec.Clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if int(i) >= spec.Requests {
					return
				}
				c := cells[int(i)%len(cells)]
				var reqID string
				if spec.TracePropagate {
					reqID = fmt.Sprintf("brload-%s-%d", runID, i)
				}
				lat, resp, code, err := issueOne(ctx, client, &spec, c, reqID, &retries, &retries503)
				if err != nil {
					errCount.Add(1)
					if code >= 500 {
						server5xx.Add(1)
					}
					fail(c, code, err)
					done.Add(1)
					continue
				}
				if resp.Coalesced {
					coalesced.Add(1)
				}
				if resp.Cached {
					cached.Add(1)
				}
				if spec.Verify != nil {
					if verr := spec.Verify(c.workload, c.machine, resp); verr != nil {
						errCount.Add(1)
						fail(c, code, verr)
						done.Add(1)
						continue
					}
				}
				mu.Lock()
				latencies = append(latencies, lat)
				if resp.Engine != "" {
					engines[resp.Engine]++
				}
				if spec.TracePropagate && resp.Timing != nil {
					phases["queue"] = append(phases["queue"], resp.Timing.QueueNS)
					phases["compile"] = append(phases["compile"], resp.Timing.CompileNS)
					phases["run"] = append(phases["run"], resp.Timing.RunNS)
					phases["total"] = append(phases["total"], resp.Timing.TotalNS)
				}
				mu.Unlock()
				done.Add(1)
			}
		}()
	}
	wg.Wait()

	res := &LoadResult{
		Requests:   int(done.Load()),
		Errors:     int(errCount.Load()),
		Server5xx:  int(server5xx.Load()),
		Retries429: int(retries.Load()),
		Retries503: int(retries503.Load()),
		Coalesced:  int(coalesced.Load()),
		Cached:     int(cached.Load()),
		WallNS:     time.Since(start).Nanoseconds(),
		Engines:    engines,
		Failures:   failures,
	}
	if res.WallNS > 0 {
		res.ReqPerSec = float64(res.Requests) / (float64(res.WallNS) / 1e9)
	}
	res.P50NS, res.P99NS = percentiles(latencies)
	if len(phases) > 0 {
		res.Phases = map[string]PhaseStats{}
		for name, ns := range phases {
			p50, p99 := percentiles(ns)
			res.Phases[name] = PhaseStats{P50NS: p50, P99NS: p99}
		}
	}
	return res, ctx.Err()
}

// backoffFor computes the sleep before the next retry: the server's
// Retry-After when it sent one (whole seconds, per RFC 9110), else
// linear 5ms steps by attempt; either way capped at max and jittered
// into [d/2, d) so a fleet of retrying clients desynchronizes instead
// of stampeding the server on the same beat.
func backoffFor(attempt int, retryAfter string, cap time.Duration) time.Duration {
	d := time.Duration(min(attempt+1, 20)) * 5 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); retryAfter != "" && err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	}
	if cap <= 0 {
		cap = time.Second
	}
	d = min(max(d, 2*time.Millisecond), cap)
	half := d / 2
	return half + rand.N(half)
}

// issueOne posts one workload run, retrying 429s (jittered backoff,
// honoring Retry-After) and — within spec.DrainRetryWindow — 503s from
// a draining server. The returned latency covers the final successful
// attempt only. A non-empty reqID is sent as X-Request-Id (retried
// attempts reuse it — the server's flight recorder keeps the newest),
// and a success that fails to echo it is an error.
func issueOne(ctx context.Context, client *http.Client, spec *LoadSpec, c loadCell, reqID string, retries, retries503 *atomic.Int64) (int64, *RunResponse, int, error) {
	body, err := json.Marshal(&RunRequest{Workload: c.workload, Machine: c.machine, Tenant: spec.Tenant})
	if err != nil {
		return 0, nil, 0, err
	}
	drainWindow := spec.DrainRetryWindow
	if drainWindow <= 0 {
		drainWindow = 5 * time.Second
	}
	var drainDeadline time.Time // set on the first 503 seen
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, "POST", spec.BaseURL+"/v1/run", bytes.NewReader(body))
		if err != nil {
			return 0, nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if reqID != "" {
			req.Header.Set("X-Request-Id", reqID)
		}
		t0 := time.Now()
		hr, err := client.Do(req)
		if err != nil {
			return 0, nil, 0, err
		}
		lat := time.Since(t0).Nanoseconds()
		raw, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil {
			return 0, nil, hr.StatusCode, err
		}
		retryable := hr.StatusCode == 429
		if hr.StatusCode == 503 {
			now := time.Now()
			if drainDeadline.IsZero() {
				drainDeadline = now.Add(drainWindow)
			}
			retryable = now.Before(drainDeadline)
		}
		if retryable {
			if hr.StatusCode == 429 {
				retries.Add(1)
			} else {
				retries503.Add(1)
			}
			select {
			case <-ctx.Done():
				return 0, nil, hr.StatusCode, ctx.Err()
			case <-time.After(backoffFor(attempt, hr.Header.Get("Retry-After"), spec.MaxBackoff)):
			}
			continue
		}
		var resp RunResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return 0, nil, hr.StatusCode, fmt.Errorf("bad response body (HTTP %d): %w", hr.StatusCode, err)
		}
		if hr.StatusCode != 200 {
			return 0, nil, hr.StatusCode, fmt.Errorf("HTTP %d: %s", hr.StatusCode, resp.Error)
		}
		if resp.Trap != nil {
			return 0, nil, hr.StatusCode, fmt.Errorf("unexpected trap: %v", resp.Trap)
		}
		if reqID != "" {
			if got := hr.Header.Get("X-Request-Id"); got != reqID {
				return 0, nil, hr.StatusCode, fmt.Errorf("X-Request-Id header %q does not echo sent %q", got, reqID)
			}
			if resp.RequestID != reqID {
				return 0, nil, hr.StatusCode, fmt.Errorf("response request_id %q does not echo sent %q", resp.RequestID, reqID)
			}
		}
		return lat, &resp, hr.StatusCode, nil
	}
}

// percentiles returns the p50 and p99 of the sample set (0,0 if empty).
func percentiles(ns []int64) (p50, p99 int64) {
	if len(ns) == 0 {
		return 0, 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(ns)-1))
		return ns[i]
	}
	return at(0.50), at(0.99)
}
