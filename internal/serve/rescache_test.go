package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/obs"
)

// The serve-layer result-cache contract: an identical repeat request is
// answered at admission (cached: true, a cache-hit span, no queue),
// no_cache forces a fresh execution, the /metrics surfaces the cache's
// traffic, oversized bodies are a 413 with the standard envelope, and a
// guard quarantine invalidates the matching entries.

func TestServeResultCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	// ShadowRate 1: every real execution is sampled, so the sample
	// counter doubles as an executions-observed counter. FlightSample 1
	// retains every request for the span assertions.
	_, ts := newTestServer(t, Config{Workers: 2, ShadowRate: 1, FlightSample: 1, Metrics: reg})

	code, _, cold := postWithID(t, ts.URL, "rc-cold", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("cold: HTTP %d: %+v", code, cold)
	}
	if cold.Cached {
		t.Error("first request claims to be cached")
	}

	code, _, warm := postWithID(t, ts.URL, "rc-warm", &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("warm: HTTP %d: %+v", code, warm)
	}
	if !warm.Cached {
		t.Fatal("identical repeat request was not served from the result cache")
	}
	if warm.Output != cold.Output || warm.Status != cold.Status ||
		warm.Instructions != cold.Instructions || warm.Engine != cold.Engine {
		t.Errorf("cached response diverges from the execution that populated it:\n got: %+v\nwant: %+v", warm, cold)
	}
	if warm.Coalesced {
		t.Error("cache hit marked coalesced; nothing was in flight")
	}
	if warm.Timing == nil || warm.Timing.RunNS != 0 || warm.Timing.CompileNS != 0 {
		t.Errorf("cache hit reports per-phase work it did not do: %+v", warm.Timing)
	}

	// The hit bypassed the queue and the workers: its flight record has
	// a cache-hit span and no queue span.
	var rec obs.RequestRecord
	hr, err := http.Get(ts.URL + "/v1/debug/requests/rc-warm")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&rec); err != nil {
		t.Fatalf("flight record decode (HTTP %d): %v", hr.StatusCode, err)
	}
	spans := map[string]bool{}
	for _, sp := range rec.Spans {
		spans[sp.Name] = true
	}
	if !spans["cache-hit"] {
		t.Errorf("hit's span tree lacks cache-hit: %+v", rec.Spans)
	}
	if spans["queue"] || spans["exec"] {
		t.Errorf("cache hit went through the queue/worker path: %+v", rec.Spans)
	}

	// Shadow verification observes real executions only: the hit must
	// not have advanced the per-class sample counter past the cold run.
	waitFor := reg.Counter("guard.shadow.sampled").Value()
	if waitFor != 1 {
		t.Errorf("guard.shadow.sampled = %d at rate 1 after 1 execution + 1 hit, want 1", waitFor)
	}

	// The cache's traffic is on /metrics.
	var reply MetricsReply
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if err := json.NewDecoder(mr.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.ResultCache == nil {
		t.Fatal("/metrics reply lacks the result_cache section")
	}
	if reply.ResultCache.Hits < 1 || reply.ResultCache.Entries < 1 || reply.ResultCache.Bytes <= 0 {
		t.Errorf("result_cache stats = %+v, want at least one hit and one accounted entry", reply.ResultCache)
	}

	// And on the Prometheus exposition, under the lossless '.' -> '_'
	// mapping.
	pr, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Body.Close()
	prom, _ := io.ReadAll(pr.Body)
	for _, name := range []string{"driver_rescache_hits", "driver_rescache_misses", "driver_rescache_bytes"} {
		if !strings.Contains(string(prom), name) {
			t.Errorf("prom exposition lacks %s", name)
		}
	}
}

func TestServeNoCacheBypass(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 || resp.Cached {
		t.Fatalf("warmup: HTTP %d cached=%v", code, resp.Cached)
	}
	// The entry exists now; no_cache must skip it and execute fresh.
	code, resp := post(t, ts.URL, &RunRequest{Workload: "wc", NoCache: true})
	if code != 200 {
		t.Fatalf("HTTP %d: %+v", code, resp)
	}
	if resp.Cached {
		t.Error("no_cache request was served from the result cache")
	}
	if resp.Timing == nil || resp.Timing.RunNS <= 0 {
		t.Errorf("no_cache request reports no run time; did it really execute? %+v", resp.Timing)
	}
	// And without no_cache the entry is still there.
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 || !resp.Cached {
		t.Errorf("after no_cache: HTTP %d cached=%v, want a cache hit", code, resp.Cached)
	}
}

func TestServeBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})

	// A comfortable body passes.
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "wc"}); code != 200 {
		t.Fatalf("small body: HTTP %d: %+v", code, resp)
	}

	// An over-limit body is a 413 in the standard error envelope, with
	// the request ID echoed like any other rejection.
	big, err := json.Marshal(&RunRequest{Source: strings.Repeat("x", 4096)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(big)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "body-limit-1")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 413 {
		t.Fatalf("oversized body: HTTP %d, want 413", hr.StatusCode)
	}
	var resp RunResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("413 body is not the standard envelope: %v", err)
	}
	if !strings.Contains(resp.Error, "512-byte limit") {
		t.Errorf("413 error = %q, want the configured limit named", resp.Error)
	}
	if hr.Header.Get("X-Request-Id") != "body-limit-1" || resp.RequestID != "body-limit-1" {
		t.Errorf("413 did not echo the request ID: header %q, body %q",
			hr.Header.Get("X-Request-Id"), resp.RequestID)
	}
}

// TestServeQuarantineInvalidatesCache: quarantining a (class, tier)
// removes its memoized results — the next identical request re-executes
// (on the rerouted tier) instead of answering from beyond the grave.
func TestServeQuarantineInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"})
	if code != 200 || resp.Engine != emu.EngineFused {
		t.Fatalf("warmup: HTTP %d engine %q: %+v", code, resp.Engine, resp)
	}
	if code, resp := post(t, ts.URL, &RunRequest{Workload: "sieve"}); code != 200 || !resp.Cached {
		t.Fatalf("pre-quarantine repeat: HTTP %d cached=%v, want a hit", code, resp.Cached)
	}
	before := s.results.Stats()
	if before.Entries < 1 {
		t.Fatalf("no entries cached before quarantine: %+v", before)
	}

	s.sup.Quarantine("sieve/branchreg", emu.EngineFused, "test quarantine")

	after := s.results.Stats()
	if after.Invalidated <= before.Invalidated {
		t.Fatalf("quarantine invalidated nothing: before %+v, after %+v", before, after)
	}
	// The class is rerouted off the quarantined tier AND its cached
	// results are gone: the next request is a fresh execution.
	code, resp = post(t, ts.URL, &RunRequest{Workload: "sieve"})
	if code != 200 {
		t.Fatalf("post-quarantine: HTTP %d: %+v", code, resp)
	}
	if resp.Cached {
		t.Error("post-quarantine request served from the invalidated cache")
	}
	if !resp.Rerouted || resp.Engine == emu.EngineFused {
		t.Errorf("post-quarantine request not rerouted off the quarantined tier: engine %q rerouted=%v",
			resp.Engine, resp.Rerouted)
	}
}
