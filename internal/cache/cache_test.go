package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigSize(t *testing.T) {
	if DefaultConfig.SizeBytes() != 8*4*64*2 {
		t.Errorf("size = %d", DefaultConfig.SizeBytes())
	}
	if DefaultConfig.String() == "" {
		t.Error("empty string")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{LineWords: 4, Sets: 4, Assoc: 1, MissPenalty: 10})
	if d := c.Fetch(0x1000); d != 10 {
		t.Errorf("cold miss delay = %d, want 10", d)
	}
	// Same line after the fill completed (time advanced by the miss).
	if d := c.Fetch(0x1004); d != 0 {
		t.Errorf("hit delay = %d, want 0", d)
	}
	if c.Stats.Misses != 1 || c.Stats.Hits != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestSequentialLocality(t *testing.T) {
	c := New(Config{LineWords: 8, Sets: 16, Assoc: 2, MissPenalty: 8})
	for addr := int32(0x1000); addr < 0x1000+256; addr += 4 {
		c.Fetch(addr)
	}
	// 256 bytes = 8 lines: 8 misses, 56 hits.
	if c.Stats.Misses != 8 {
		t.Errorf("misses = %d, want 8", c.Stats.Misses)
	}
	if c.Stats.Hits != 64-8 {
		t.Errorf("hits = %d, want 56", c.Stats.Hits)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	cfg := Config{LineWords: 4, Sets: 8, Assoc: 2, MissPenalty: 10}
	// Without prefetch: demand miss costs the full penalty.
	plain := New(cfg)
	for i := 0; i < 20; i++ {
		plain.Fetch(int32(0x1000 + 4*i%16))
	}
	d := plain.Fetch(0x2000)
	if d != 10 {
		t.Fatalf("demand miss = %d", d)
	}
	// With a prefetch long before: free.
	pre := New(cfg)
	pre.Prefetch(0x2000)
	for i := 0; i < 20; i++ {
		pre.Fetch(int32(0x1000 + 4*i%16))
	}
	if d := pre.Fetch(0x2000); d != 0 {
		t.Errorf("prefetched fetch delay = %d, want 0", d)
	}
	if pre.Stats.PrefetchUsed != 1 {
		t.Errorf("prefetch not counted used: %+v", pre.Stats)
	}
}

func TestPartialWait(t *testing.T) {
	cfg := Config{LineWords: 4, Sets: 8, Assoc: 2, MissPenalty: 10}
	c := New(cfg)
	c.Prefetch(0x2000)
	// Fetch the line 3 cycles later: must wait the remaining 7.
	c.Fetch(0x1000) // advances time (miss, +1+10)
	// time is now 11; fill completes at 10 -> hit
	if d := c.Fetch(0x2000); d != 0 {
		t.Errorf("after long delay: %d", d)
	}
	// Now an in-flight case: prefetch then immediate fetch.
	c2 := New(cfg)
	c2.Prefetch(0x3000)
	d := c2.Fetch(0x3000) // 1 cycle later; fill needs 10 from issue
	if d <= 0 || d >= 10 {
		t.Errorf("partial wait = %d, want in (0,10)", d)
	}
	if c2.Stats.PartialWaits != 1 {
		t.Errorf("partial wait not counted: %+v", c2.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{LineWords: 4, Sets: 1, Assoc: 2, MissPenalty: 1})
	c.Fetch(0x1000) // line A
	c.Fetch(0x1010) // line B
	c.Fetch(0x1000) // touch A (A more recent than B)
	c.Fetch(0x1020) // line C evicts B
	if d := c.Fetch(0x1000); d != 0 {
		t.Error("A should still be resident")
	}
	if d := c.Fetch(0x1010); d == 0 {
		t.Error("B should have been evicted")
	}
}

func TestPollutionAccounting(t *testing.T) {
	c := New(Config{LineWords: 4, Sets: 1, Assoc: 1, MissPenalty: 1})
	c.Fetch(0x1000)    // used line
	c.Prefetch(0x2000) // evicts the used line: pollution
	if c.Stats.Pollution != 1 {
		t.Errorf("pollution = %d, want 1", c.Stats.Pollution)
	}
	c.Prefetch(0x3000) // evicts the unused prefetched line: waste
	if c.Stats.PrefetchWaste != 1 {
		t.Errorf("waste = %d, want 1", c.Stats.PrefetchWaste)
	}
	c.Flush() // the remaining untouched prefetched line is waste too
	if c.Stats.PrefetchWaste != 2 {
		t.Errorf("waste after flush = %d, want 2", c.Stats.PrefetchWaste)
	}
}

func TestPrefetchDup(t *testing.T) {
	c := New(Config{LineWords: 4, Sets: 4, Assoc: 2, MissPenalty: 5})
	c.Prefetch(0x1000)
	c.Prefetch(0x1004) // same line
	if c.Stats.PrefetchDup != 1 {
		t.Errorf("dup = %d", c.Stats.PrefetchDup)
	}
}

func TestHitRate(t *testing.T) {
	c := New(DefaultConfig)
	if c.Stats.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
	for i := 0; i < 100; i++ {
		c.Fetch(0x1000)
	}
	if hr := c.Stats.HitRate(); hr < 0.98 {
		t.Errorf("hit rate = %f", hr)
	}
}

// Property: hits + misses + partial waits == fetches, and delay cycles are
// nonnegative and bounded by fetches*penalty.
func TestAccountingInvariant(t *testing.T) {
	f := func(addrs []uint16, pre []uint16) bool {
		c := New(Config{LineWords: 4, Sets: 8, Assoc: 2, MissPenalty: 6})
		for i, a := range addrs {
			if i%3 == 0 && len(pre) > 0 {
				c.Prefetch(int32(pre[i%len(pre)]) * 4)
			}
			c.Fetch(int32(a) * 4)
		}
		s := c.Stats
		if s.Hits+s.Misses+s.PartialWaits != s.Fetches {
			return false
		}
		if s.DelayCycles < 0 || s.DelayCycles > s.Fetches*6 {
			return false
		}
		return s.PrefetchDup <= s.Prefetches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// divLine is addrToLine's division form, the reference for shift/mask.
func divLine(cfg Config, addr int32) (int, int32) {
	lineAddr := addr / int32(4*cfg.LineWords)
	return int(uint32(lineAddr) % uint32(cfg.Sets)), lineAddr
}

// TestShiftMaskMatchesDivision: for power-of-two geometries the shift
// and mask index every address exactly as the division does, negative
// addresses included.
func TestShiftMaskMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := []int32{0, 4, 28, 32, 60, 64, 1 << 20, 1<<31 - 4, -4, -32, -1 << 31}
	for i := 0; i < 2000; i++ {
		addrs = append(addrs, int32(rng.Uint32())&^3, int32(rng.Intn(1<<16))*4)
	}
	for _, lw := range []int{1, 2, 4, 8, 16, 32} {
		for _, sets := range []int{1, 2, 8, 16, 32, 64, 256} {
			cfg := Config{LineWords: lw, Sets: sets, Assoc: 2, MissPenalty: 8}
			c := New(cfg)
			if !c.pow2 {
				t.Fatalf("%+v: power-of-two geometry not detected", cfg)
			}
			for _, a := range addrs {
				gs, gt := c.addrToLine(a)
				ws, wt := divLine(cfg, a)
				if gs != ws || gt != wt {
					t.Fatalf("%+v addr %d: shift/mask gives (%d, %d), division (%d, %d)", cfg, a, gs, gt, ws, wt)
				}
			}
		}
	}
}

// TestNonPow2Geometry: a geometry that is not a power of two keeps the
// division and still simulates correctly.
func TestNonPow2Geometry(t *testing.T) {
	for _, cfg := range []Config{
		{LineWords: 3, Sets: 16, Assoc: 2, MissPenalty: 8},
		{LineWords: 8, Sets: 6, Assoc: 3, MissPenalty: 5},
	} {
		c := New(cfg)
		if c.pow2 {
			t.Fatalf("%+v: detected as power-of-two", cfg)
		}
		for a := int32(0); a < 4096; a += 4 {
			gs, gt := c.addrToLine(a)
			ws, wt := divLine(cfg, a)
			if gs != ws || gt != wt {
				t.Fatalf("%+v addr %d: (%d, %d), want (%d, %d)", cfg, a, gs, gt, ws, wt)
			}
		}
		// 48 sequential words fill 48/LineWords lines, all cold misses
		// (the cache holds them all).
		c = New(cfg)
		for a := int32(0); a < 48*4; a += 4 {
			c.Fetch(a)
		}
		if want := int64(48 / cfg.LineWords); c.Stats.Misses != want || c.Stats.Hits != 48-want {
			t.Errorf("%+v: %d misses, %d hits; want %d, %d", cfg, c.Stats.Misses, c.Stats.Hits, want, 48-want)
		}
	}
}

// TestTraceReplayMatchesLive: replaying a recorded stream leaves every
// Stats field as the live Fetch/Prefetch calls did, with prefetch off
// and on, for power-of-two and other geometries.
func TestTraceReplayMatchesLive(t *testing.T) {
	cfgs := []Config{
		{LineWords: 4, Sets: 32, Assoc: 1, MissPenalty: 8},
		{LineWords: 8, Sets: 8, Assoc: 2, MissPenalty: 8},
		{LineWords: 16, Sets: 16, Assoc: 2, MissPenalty: 3},
		{LineWords: 3, Sets: 6, Assoc: 3, MissPenalty: 5},
	}
	rng := rand.New(rand.NewSource(2))
	type event struct {
		addr     int32
		prefetch bool
	}
	var events []event
	pc := int32(0x1000)
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			pc = int32(rng.Intn(2048)) * 4
		case r == 1:
			events = append(events, event{addr: int32(rng.Intn(2048)) * 4, prefetch: true})
		}
		events = append(events, event{addr: pc})
		pc += 4
	}
	var tr Trace
	for _, e := range events {
		if e.prefetch {
			tr.Prefetch(e.addr)
		} else {
			tr.Fetch(e.addr)
		}
	}
	if len(tr.entries) >= len(events)/2 {
		t.Errorf("trace not compact: %d entries for %d events", len(tr.entries), len(events))
	}
	for _, cfg := range cfgs {
		for _, pre := range []bool{false, true} {
			live := New(cfg)
			for _, e := range events {
				switch {
				case !e.prefetch:
					live.Fetch(e.addr)
				case pre:
					live.Prefetch(e.addr)
				}
			}
			live.Flush()
			replay := New(cfg)
			tr.Replay(replay, pre)
			replay.Flush()
			if live.Stats != replay.Stats {
				t.Errorf("%v prefetch=%t: replay %+v, live %+v", cfg, pre, replay.Stats, live.Stats)
			}
		}
	}
}
