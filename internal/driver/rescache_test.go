package driver

import (
	"context"
	"testing"

	"branchreg/internal/emu"
	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// The result-cache contract: a size-aware LRU whose Get/Put pair is
// byte-budgeted and whose entries can be invalidated by the guard's
// (class, tier) quarantine coordinates. Eviction order, replacement,
// oversized-entry refusal, and sanitization (Timing zeroed, Cached set)
// are all load-bearing for the serve admission path.

// rcSize mirrors Put's accounting for a test entry.
func rcSize(fp, class, output string) int64 {
	return int64(len(fp)) + int64(len(class)) + int64(len(output)) + rcEntryOverhead
}

func TestResultCacheLRUEviction(t *testing.T) {
	// Budget for exactly two single-letter-keyed, empty-output entries.
	rc := NewResultCache(2 * rcSize("a", "c", ""))
	put := func(fp string) { rc.Put(fp, "c", &Result{Engine: emu.EngineFast}) }

	put("a")
	put("b")
	put("x") // evicts "a", the least recently used
	if _, ok := rc.Get("a"); ok {
		t.Error("oldest entry survived an over-budget Put")
	}
	if _, ok := rc.Get("b"); !ok {
		t.Fatal("entry b evicted early")
	}
	// b was just touched, so the next eviction takes x.
	put("y")
	if _, ok := rc.Get("x"); ok {
		t.Error("recently-used order ignored: x should have been evicted, not b")
	}
	if _, ok := rc.Get("b"); !ok {
		t.Error("touched entry b evicted despite being most recently used")
	}
	st := rc.Stats()
	if st.Evictions != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 evictions and 2 entries", st)
	}
	if st.Bytes != 2*rcSize("a", "c", "") {
		t.Errorf("accounted bytes = %d, want %d", st.Bytes, 2*rcSize("a", "c", ""))
	}
}

func TestResultCacheOversizedAndReplace(t *testing.T) {
	rc := NewResultCache(rcSize("k", "c", "") + 8)
	// An entry larger than the whole budget is refused, not stored.
	rc.Put("k", "c", &Result{Output: string(make([]byte, 512))})
	if st := rc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("oversized entry was stored: %+v", st)
	}
	// Replacement swaps the entry in place without leaking bytes.
	rc.Put("k", "c", &Result{Output: "old", Status: 1})
	rc.Put("k", "c", &Result{Output: "new", Status: 2})
	res, ok := rc.Get("k")
	if !ok || res.Output != "new" || res.Status != 2 {
		t.Fatalf("replacement not visible: ok=%v res=%+v", ok, res)
	}
	if st := rc.Stats(); st.Entries != 1 || st.Bytes != rcSize("k", "c", "new") {
		t.Errorf("replacement leaked accounting: %+v", st)
	}
}

func TestResultCacheSanitizes(t *testing.T) {
	rc := NewResultCache(1 << 20)
	orig := &Result{
		Output: "out", Engine: emu.EngineFused,
		Timing: Timing{CompileNS: 7, RunNS: 9, QueueNS: 16},
	}
	rc.Put("k", "c", orig)
	if orig.Cached || orig.Timing.RunNS != 9 {
		t.Errorf("Put mutated the caller's Result: %+v", orig)
	}
	res, ok := rc.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	if !res.Cached {
		t.Error("cached Result not marked Cached")
	}
	if res.Timing != (Timing{}) {
		t.Errorf("cached Result kept per-run timing: %+v", res.Timing)
	}
	if res.Output != "out" || res.Engine != emu.EngineFused {
		t.Errorf("cached Result lost payload: %+v", res)
	}
}

func TestResultCacheInvalidate(t *testing.T) {
	rc := NewResultCache(1 << 20)
	rc.Put("a", "sieve/branchreg", &Result{Engine: emu.EngineFused})
	rc.Put("b", "sieve/branchreg", &Result{Engine: emu.EngineFast})
	rc.Put("c", "wc/branchreg", &Result{Engine: emu.EngineFused})

	// Tier-scoped: only the (class, engine) pair goes.
	if n := rc.Invalidate("sieve/branchreg", emu.EngineFused); n != 1 {
		t.Errorf("tier-scoped Invalidate dropped %d entries, want 1", n)
	}
	if _, ok := rc.Get("a"); ok {
		t.Error("quarantined (class, tier) entry survived")
	}
	if _, ok := rc.Get("b"); !ok {
		t.Error("same class, different tier was invalidated")
	}
	if _, ok := rc.Get("c"); !ok {
		t.Error("different class was invalidated")
	}
	// Class-wide: empty tier matches every engine.
	if n := rc.Invalidate("sieve/branchreg", ""); n != 1 {
		t.Errorf("class-wide Invalidate dropped %d entries, want 1", n)
	}
	if st := rc.Stats(); st.Invalidated != 2 || st.Entries != 1 {
		t.Errorf("stats after invalidation = %+v, want 2 invalidated, 1 entry", st)
	}
}

func TestCacheableExcludesPointerRequests(t *testing.T) {
	r := Request{Source: "func main() int { return 0; }"}
	if !Cacheable(&r) {
		t.Error("plain source request not cacheable")
	}
	r.Faults = &emu.FaultPlan{Seed: 1}
	if !Cacheable(&r) {
		t.Error("fault-plan request not cacheable; the plan is in the fingerprint")
	}
	r.Faults = nil
	r.Program = &isa.Program{}
	if Cacheable(&r) {
		t.Error("pre-linked Program request cacheable; pointer fingerprints alias across recycled addresses")
	}
	r.Program = nil
	r.Profile = emu.NewBlockProfile(4)
	if Cacheable(&r) {
		t.Error("Profile-carrying request cacheable; the profile is an output a hit cannot fill")
	}
}

// TestCacheExecMemoizes is the driver-level round trip: with a
// ResultCache attached, the second identical Exec is served from
// memory (Cached set, no timing) and NoCache forces a fresh run.
func TestCacheExecMemoizes(t *testing.T) {
	w, _ := workloads.ByName("wc")
	c := NewCache()
	c.SetResultCache(NewResultCache(1 << 20))
	ctx := ContextWithResultClass(context.Background(), "wc/branchreg")
	req := Request{Source: w.FullSource(), Kind: isa.BranchReg, Input: w.Input, Options: DefaultOptions()}

	first, err := c.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first execution claims to be cached")
	}
	second, err := c.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical Exec was not served from the result cache")
	}
	if second.Output != first.Output || second.Status != first.Status ||
		second.Stats.Instructions != first.Stats.Instructions {
		t.Errorf("cached Result diverges:\n got: %+v\nwant: %+v", second, first)
	}
	if second.Timing != (Timing{}) {
		t.Errorf("cached Result carries per-run timing: %+v", second.Timing)
	}

	// NoCache bypasses the lookup: a fresh execution, not a hit.
	req.NoCache = true
	fresh, err := c.Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Error("NoCache request was served from the result cache")
	}

	// Entries carry the context's class for quarantine invalidation.
	if n := c.ResultCache().Invalidate("wc/branchreg", ""); n != 1 {
		t.Errorf("Invalidate dropped %d entries, want the 1 cached under the context class", n)
	}
}
