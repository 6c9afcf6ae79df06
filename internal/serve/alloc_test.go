package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"branchreg/internal/obs"
	"branchreg/internal/workloads"
)

// Allocation budgets for the serve hot path. These are ceilings, not
// aspirations: the cache-hit path answers without queueing, executing,
// or re-encoding through fresh buffers, and the budget pins the pooled
// pieces (body read buffer, JSON encoder, latency-histogram handles)
// so an accidental per-request allocation — a fmt.Sprintf in emit, an
// unpooled encoder — fails the gate instead of quietly taxing every
// response. Run without -race (`make alloc-gate`); the detector's
// instrumentation allocates on its own.

// nullRW discards the response; a ResponseRecorder's growing body
// buffer would bill its own allocations to the handler under test.
type nullRW struct{ h http.Header }

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullRW) WriteHeader(int)             {}

// hitHarness warms one sieve entry and returns a closure that replays
// the identical request as an admission-time cache hit.
func hitHarness(t testing.TB) func() {
	cfg := Config{Workers: 2, Metrics: obs.NewRegistry()}
	s := New(cfg)
	t.Cleanup(func() { stopServer(t, s) })

	body := []byte(`{"workload":"sieve"}`)
	warm := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	warm.Header.Set("X-Request-Id", "alloc-warm")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, warm)
	if rec.Code != 200 {
		t.Fatalf("warmup: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/run", nil)
	req.Header.Set("X-Request-Id", "alloc-hit")
	w := &nullRW{h: http.Header{}}
	return func() {
		req.Body = io.NopCloser(bytes.NewReader(body))
		s.ServeHTTP(w, req)
	}
}

func stopServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestServeCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	hit := hitHarness(t)
	hit() // absorb one-time pool and histogram-set population

	avg := testing.AllocsPerRun(200, hit)
	// Measured ~41 allocs/hit: JSON decode of the request, the
	// fingerprint, the request trace and its spans, the response
	// struct, and the flight-record offer. The ceiling leaves room for
	// stdlib drift but fails on anything structural: an unpooled
	// encoder, a per-response fmt name, or a per-request rebuild of the
	// workload table each cost 10+.
	const budget = 60
	if avg > budget {
		t.Errorf("cache-hit path allocates %.1f objects per request, budget %d", avg, budget)
	}
}

// BenchmarkServeCacheHit is the memoized hot path end to end (decode,
// fingerprint, cache Get, respond) without HTTP transport overhead.
// Run with -benchmem: the allocs/op figure is the one the alloc gate
// budgets.
func BenchmarkServeCacheHit(b *testing.B) {
	hit := hitHarness(b)
	hit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}

// settledHeap returns the live heap after a few garbage collections.
func settledHeap() int64 {
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServeUniqueSourcesBoundedHeap pushes new source through the
// handler, as traffic that salts its programs does: every request
// misses the compile cache. The live heap must stay within the compile
// cache's budget plus fixed slack, where an unbounded cache grows by
// every program it ever compiled.
// Run without -race (`make alloc-gate`); the detector inflates the heap.
func TestServeUniqueSourcesBoundedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	// The result cache is off: it has its own byte budget, and this
	// test measures the compile side alone.
	s := New(Config{Workers: 2, ResultCacheMB: -1, Metrics: obs.NewRegistry()})
	t.Cleanup(func() { stopServer(t, s) })
	var short []workloads.Workload
	for _, w := range workloads.All() {
		switch w.Name {
		case "matmult", "mincost", "puzzle", "sieve", "spline": // over 1M instructions
		default:
			short = append(short, w)
		}
	}
	serve := func(i int) {
		w := short[i%len(short)]
		src := fmt.Sprintf("%s\nint heap_salt_%d(void) { return %d; }\n", w.FullSource(), i, i)
		body, err := json.Marshal(RunRequest{Source: src, Machine: [2]string{"baseline", "branchreg"}[i/len(short)%2], Input: &w.Input})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("request %d (%s): HTTP %d: %s", i, w.Name, rec.Code, rec.Body.String())
		}
	}
	// One pass over the 28 cells populates the server's fixed
	// structures (pools, histogram sets) before the baseline.
	for i := 0; i < 2*len(short); i++ {
		serve(i)
	}
	before := settledHeap()
	const requests = 400
	for i := 2 * len(short); i < 2*len(short)+requests; i++ {
		serve(i)
	}
	growth := settledHeap() - before
	u := s.cache.Usage()
	t.Logf("heap growth %.1f MiB over %d new sources; cache holds %.1f MiB, %d evictions",
		float64(growth)/(1<<20), requests, float64(u.Bytes)/(1<<20), u.Evictions)
	// The slack covers the flight recorder's ring and the guard's
	// bounded per-class state.
	const slack = 8 << 20
	if growth > CompileCacheBytes+slack {
		t.Fatalf("live heap grew %d bytes over %d new sources, budget %d + slack %d",
			growth, requests, CompileCacheBytes, slack)
	}
	if u.Evictions == 0 || u.Bytes > CompileCacheBytes {
		t.Fatalf("compile cache usage %+v: want evictions within %d bytes", u, CompileCacheBytes)
	}
}

// TestServeMatrixStaysResident: the default compile-cache budget holds
// the whole 19×2 workload matrix, so repeated traffic over it never
// evicts (and never recompiles).
func TestServeMatrixStaysResident(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, w := range workloads.All() {
		for _, m := range []string{"baseline", "branchreg"} {
			if code, resp := post(t, ts.URL, &RunRequest{Workload: w.Name, Machine: m, NoCache: true}); code != 200 {
				t.Fatalf("%s/%s: HTTP %d: %+v", w.Name, m, code, resp)
			}
		}
	}
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var mr MetricsReply
	if err := json.NewDecoder(hr.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	n := int64(2 * len(workloads.All()))
	if ev, entries := mr.Metrics.Counters["serve.cache.evictions"], mr.Metrics.Gauges["serve.cache.entries"]; ev != 0 || entries != n {
		t.Fatalf("after one 19×2 pass: %d evictions, %d entries, want 0 and %d", ev, entries, n)
	}
	if b := mr.Metrics.Gauges["serve.cache.bytes"]; b <= 0 || b > CompileCacheBytes {
		t.Fatalf("serve.cache.bytes = %d, want within (0, %d]", b, CompileCacheBytes)
	}
}
