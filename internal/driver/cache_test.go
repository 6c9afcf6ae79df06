package driver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

const cacheTestSrc = `int main(void) { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }`

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	o := DefaultOptions()
	const callers = 16
	var wg sync.WaitGroup
	progs := make([]*isa.Program, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Compile(context.Background(), cacheTestSrc, isa.BranchReg, o)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 || st.Entries != 1 {
		t.Errorf("misses = %d entries = %d, want 1 compile for 1 key", st.Misses, st.Entries)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	for _, p := range progs[1:] {
		if p != progs[0] {
			t.Fatal("cache returned different program pointers for one key")
		}
	}
}

func TestCacheKeyComponents(t *testing.T) {
	c := NewCache()
	o := DefaultOptions()
	ctx := context.Background()
	// Same source, both machines: two keys.
	if _, err := c.Compile(ctx, cacheTestSrc, isa.Baseline, o); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, o); err != nil {
		t.Fatal(err)
	}
	// Different options fingerprint: third key.
	o2 := o
	o2.BRM.BranchRegs = 4
	if _, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, o2); err != nil {
		t.Fatal(err)
	}
	// Different source: fourth key.
	if _, err := c.Compile(ctx, cacheTestSrc+"\n", isa.BranchReg, o); err != nil {
		t.Fatal(err)
	}
	// Repeats of all four: hits only.
	for _, again := range []func() (*isa.Program, error){
		func() (*isa.Program, error) { return c.Compile(ctx, cacheTestSrc, isa.Baseline, o) },
		func() (*isa.Program, error) { return c.Compile(ctx, cacheTestSrc, isa.BranchReg, o) },
		func() (*isa.Program, error) { return c.Compile(ctx, cacheTestSrc, isa.BranchReg, o2) },
		func() (*isa.Program, error) { return c.Compile(ctx, cacheTestSrc+"\n", isa.BranchReg, o) },
	} {
		if _, err := again(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 4 || st.Entries != 4 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 4 misses, 4 entries, 4 hits", st)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	o := DefaultOptions()
	ctx := context.Background()
	bad := `int main(void) { return ; }` // syntax error
	if _, err := c.Compile(ctx, bad, isa.BranchReg, o); err == nil {
		t.Fatal("bad source compiled")
	}
	if _, err := c.Compile(ctx, bad, isa.BranchReg, o); err == nil {
		t.Fatal("bad source compiled on second request")
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("failed compilation ran %d times, want 1", st.Misses)
	}
}

func TestCacheRespectsContext(t *testing.T) {
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, DefaultOptions()); err == nil {
		t.Fatal("cancelled compile succeeded")
	}
	if st := c.Stats(); st.Requests != 0 {
		t.Errorf("cancelled request counted: %+v", st)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr string
	}{
		{"default ok", func(o *Options) {}, ""},
		{"negative align", func(o *Options) { o.AlignWords = -4 }, "AlignWords"},
		{"zero bregs", func(o *Options) { o.BRM.BranchRegs = 0 }, "BranchRegs"},
		{"one breg", func(o *Options) { o.BRM.BranchRegs = 1 }, "BranchRegs"},
		{"nine bregs", func(o *Options) { o.BRM.BranchRegs = 9 }, "BranchRegs"},
		{"min bregs ok", func(o *Options) { o.BRM.BranchRegs = 2 }, ""},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mutate(&o)
		err := o.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want mention of %s", tc.name, err, tc.wantErr)
		}
	}
	// Compile must reject invalid options up front, not silently link.
	o := DefaultOptions()
	o.AlignWords = -1
	if _, err := Compile(context.Background(), cacheTestSrc, isa.BranchReg, o); err == nil {
		t.Error("Compile accepted AlignWords = -1")
	}
	if _, err := NewCache().Compile(context.Background(), cacheTestSrc, isa.BranchReg, o); err == nil {
		t.Error("Cache.Compile accepted AlignWords = -1")
	}
}

func TestFingerprintCoversOptions(t *testing.T) {
	base := DefaultOptions()
	variants := []func(*Options){
		func(o *Options) { o.Opt.Fold = false },
		func(o *Options) { o.Opt.CopyProp = false },
		func(o *Options) { o.Opt.CSE = false },
		func(o *Options) { o.Opt.DCE = false },
		func(o *Options) { o.Opt.Simplify = false },
		func(o *Options) { o.Opt.LICM = true },
		func(o *Options) { o.BRM.Hoist = false },
		func(o *Options) { o.BRM.ReplaceNoops = false },
		func(o *Options) { o.BRM.Schedule = false },
		func(o *Options) { o.BRM.BranchRegs = 4 },
		func(o *Options) { o.BRM.FastCompare = true },
		func(o *Options) { o.AlignWords = 8 },
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for i, mutate := range variants {
		o := base
		mutate(&o)
		fp := o.Fingerprint()
		if seen[fp] {
			t.Errorf("variant %d does not change the fingerprint: %s", i, fp)
		}
		seen[fp] = true
	}
}

// TestCacheCompilePanicContained is the regression test for the
// singleflight wedge: a panicking compiler used to escape Cache.Compile
// before e.done was closed, so every later request for that key blocked
// forever. The panic must instead become a cached ErrCompilePanic error
// for the first caller, concurrent waiters, and later hits alike.
func TestCacheCompilePanicContained(t *testing.T) {
	orig := compileFn
	defer func() { compileFn = orig }()
	var calls atomic.Int64
	release := make(chan struct{})
	compileFn = func(ctx context.Context, src string, kind isa.Kind, o Options) (*isa.Program, error) {
		calls.Add(1)
		<-release
		panic("compiler bug")
	}

	c := NewCache()
	o := DefaultOptions()
	ctx := context.Background()

	// A concurrent waiter joins the in-flight compilation before the
	// panic fires; it must be released, not wedged.
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, o)
		waiterErr <- err
	}()
	for c.Stats().Requests == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		for c.Stats().Hits == 0 { // the waiter has joined once it counts as a hit
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()

	if _, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, o); !errors.Is(err, ErrCompilePanic) {
		t.Fatalf("first caller: err = %v, want ErrCompilePanic", err)
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrCompilePanic) {
			t.Fatalf("waiter: err = %v, want ErrCompilePanic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged: e.done was never closed after the compile panic")
	}

	// The panic is cached like any compile error: a later request for the
	// same key gets the error without re-invoking the compiler.
	if _, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, o); !errors.Is(err, ErrCompilePanic) {
		t.Fatalf("later caller: err = %v, want cached ErrCompilePanic", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compiler invoked %d times, want 1 (panic result cached)", n)
	}
}

// saltedSrc returns cacheTestSrc with a trailing comment: a distinct
// cache key that compiles to the same program (and the same size).
func saltedSrc(n int) string { return fmt.Sprintf("%s\n// %d\n", cacheTestSrc, n) }

func TestBoundedCacheEvictsOldestFirst(t *testing.T) {
	ctx := context.Background()
	o := DefaultOptions()
	p, err := Compile(ctx, cacheTestSrc, isa.BranchReg, o)
	if err != nil {
		t.Fatal(err)
	}
	size := programBytes(p)
	budget := 3*size + size/2
	c := NewBoundedCache(budget)
	compile := func(n int) *isa.Program {
		t.Helper()
		p, err := c.Compile(ctx, saltedSrc(n), isa.BranchReg, o)
		if err != nil {
			t.Fatal(err)
		}
		if u := c.Usage(); u.Bytes > budget {
			t.Fatalf("cache holds %d bytes, budget %d", u.Bytes, budget)
		}
		return p
	}
	p0 := compile(0)
	compile(1)
	compile(2)
	if compile(0) != p0 { // a hit, and 0 becomes most recently used
		t.Fatal("resident key recompiled")
	}
	compile(3) // over budget: evicts 1, the least recently used
	if st, u := c.Stats(), c.Usage(); st.Entries != 3 || st.Misses != 4 || u.Evictions != 1 || u.Bytes != 3*size {
		t.Fatalf("after 4 keys: stats %+v usage %+v, want 3 entries, 4 misses, 1 eviction, %d bytes", st, u, 3*size)
	}
	compile(0)
	compile(2)
	if st := c.Stats(); st.Misses != 4 {
		t.Fatalf("keys 0 and 2 were evicted: %+v", st)
	}
	compile(1) // evicted above: compiles again, evicting 3
	if st, u := c.Stats(), c.Usage(); st.Misses != 5 || u.Evictions != 2 {
		t.Fatalf("re-requesting an evicted key: stats %+v usage %+v, want 5 misses, 2 evictions", st, u)
	}
	compile(3)
	if st := c.Stats(); st.Misses != 6 {
		t.Fatalf("key 3 should have been the one evicted: %+v", st)
	}
}

func TestBoundedCacheDropsOversizedProgram(t *testing.T) {
	ctx := context.Background()
	o := DefaultOptions()
	c := NewBoundedCache(1024) // smaller than any linked program
	for i := 0; i < 2; i++ {
		p, err := c.Compile(ctx, cacheTestSrc, isa.BranchReg, o)
		if err != nil || p == nil {
			t.Fatalf("oversized program not returned: %v", err)
		}
	}
	st, u := c.Stats(), c.Usage()
	if st.Misses != 2 || st.Entries != 0 || u.Bytes != 0 || u.Evictions != 0 {
		t.Fatalf("oversized program retained: stats %+v usage %+v", st, u)
	}
	// A compile error is charged a small fixed size and stays cached.
	bad := `int main(void) { return ; }`
	for i := 0; i < 2; i++ {
		if _, err := c.Compile(ctx, bad, isa.BranchReg, o); err == nil {
			t.Fatal("bad source compiled")
		}
	}
	if st, u := c.Stats(), c.Usage(); st.Misses != 3 || st.Entries != 1 || u.Bytes != errEntryBytes {
		t.Fatalf("compile error not cached: stats %+v usage %+v", st, u)
	}
}

// TestBoundedCacheSingleflightUnderEviction holds one key's compilation
// in flight while other keys churn the cache well past its budget:
// every caller of the held key must still share one compilation and
// one program pointer, because in-flight entries are never evictable.
func TestBoundedCacheSingleflightUnderEviction(t *testing.T) {
	orig := compileFn
	defer func() { compileFn = orig }()
	held := saltedSrc(-1)
	var heldCalls atomic.Int64
	release := make(chan struct{})
	compileFn = func(ctx context.Context, src string, kind isa.Kind, o Options) (*isa.Program, error) {
		if src == held {
			heldCalls.Add(1)
			<-release
		}
		return orig(ctx, src, kind, o)
	}

	ctx := context.Background()
	o := DefaultOptions()
	p, err := Compile(ctx, cacheTestSrc, isa.BranchReg, o)
	if err != nil {
		t.Fatal(err)
	}
	budget := 2*programBytes(p) + 1
	c := NewBoundedCache(budget)

	const callers, churn = 8, 24
	progs := make([]*isa.Program, callers)
	var wg sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		p, err := c.Compile(ctx, held, isa.BranchReg, o)
		if err != nil {
			t.Error(err)
		}
		progs[i] = p
	}
	wg.Add(1)
	go get(0)
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go get(i)
	}
	var churners sync.WaitGroup
	for w := 0; w < 2; w++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for n := w; n < churn; n += 2 {
				if _, err := c.Compile(ctx, saltedSrc(n), isa.BranchReg, o); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	churners.Wait()
	for c.Stats().Hits < callers-1 { // every waiter has joined the held compilation
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := heldCalls.Load(); n != 1 {
		t.Fatalf("held key compiled %d times, want 1", n)
	}
	for _, p := range progs[1:] {
		if p == nil || p != progs[0] {
			t.Fatal("callers of one key got different programs")
		}
	}
	if u := c.Usage(); u.Evictions == 0 || u.Bytes > budget {
		t.Fatalf("usage %+v: want evictions under a %d-byte budget", u, budget)
	}
}

// compileMatrix compiles every workload for both machines through c.
func compileMatrix(t *testing.T, c *Cache) {
	t.Helper()
	for _, w := range workloads.All() {
		for _, k := range []isa.Kind{isa.Baseline, isa.BranchReg} {
			if _, err := c.Compile(context.Background(), w.FullSource(), k, DefaultOptions()); err != nil {
				t.Fatalf("%s/%v: %v", w.Name, k, err)
			}
		}
	}
}

func TestUnboundedCacheCompilesEachKeyOnce(t *testing.T) {
	c := NewCache()
	compileMatrix(t, c)
	compileMatrix(t, c)
	n := int64(2 * len(workloads.All()))
	if st, u := c.Stats(), c.Usage(); st.Misses != n || st.Entries != n || st.Hits != n || u.Evictions != 0 {
		t.Fatalf("stats %+v usage %+v, want %d misses == entries, %d hits, no evictions", st, u, n, n)
	}
}

// TestProgramBytesTracksHeap checks the budget's currency: the summed
// size estimate of the 19×2 matrix must be within 30% of the live heap
// those programs actually hold.
func TestProgramBytesTracksHeap(t *testing.T) {
	workloads.All() // build the source table outside the measurement
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewCache()
	compileMatrix(t, c)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	est := c.Usage().Bytes
	runtime.KeepAlive(c)
	ratio := float64(est) / float64(live)
	t.Logf("estimate %d bytes, live heap %d bytes, ratio %.3f", est, live, ratio)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("size estimate %d is %.2fx the measured live heap %d, want within 30%%", est, ratio, live)
	}
}
