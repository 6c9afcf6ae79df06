package exp

import (
	"context"
	"testing"

	"branchreg/internal/cache"
	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// liveCaches runs p once on the instrumented loop with its fetch and
// prefetch hooks driving one cache per (configuration, prefetch) pair,
// as the cache study did before it replayed recorded streams.
func liveCaches(t *testing.T, p *isa.Program, input string, cfgs []cache.Config) [][2]cache.Stats {
	t.Helper()
	m, err := emu.New(p, input)
	if err != nil {
		t.Fatal(err)
	}
	var off, on []*cache.Cache
	for _, cfg := range cfgs {
		off = append(off, cache.New(cfg))
		on = append(on, cache.New(cfg))
	}
	m.Hooks.Fetch = func(addr int32) {
		for i := range cfgs {
			off[i].Fetch(addr)
			on[i].Fetch(addr)
		}
	}
	m.Hooks.Prefetch = func(addr int32) {
		for _, c := range on {
			c.Prefetch(addr)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][2]cache.Stats, len(cfgs))
	for i := range cfgs {
		off[i].Flush()
		on[i].Flush()
		out[i] = [2]cache.Stats{off[i].Stats, on[i].Stats}
	}
	return out
}

// TestReplayMatchesLiveHooks is the differential check behind the
// replayed cache study: for the cache study's five workloads and the
// alignment study's line-aligned builds, on every default configuration
// (and the alignment study's) with prefetch off and on, a replay of the
// recorded fetch stream leaves every cache.Stats field as the live hooks
// did. The cache study's merged rows must equal the live sums too.
func TestReplayMatchesLiveHooks(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the cache-study workloads on the instrumented loop")
	}
	ctx := context.Background()
	alignCfg := cache.Config{LineWords: 8, Sets: 16, Assoc: 2, MissPenalty: 8}
	cfgs := append(DefaultCacheConfigs(), alignCfg)
	studied := []string{"dhrystone", "matmult", "grep", "sort", "tinycc"}
	aligned := driver.DefaultOptions()
	aligned.AlignWords = 8
	var r Runner
	sums := make([][2]cache.Stats, len(DefaultCacheConfigs()))
	check := func(name string, o driver.Options) {
		sel, err := selectWorkloads(nil, []string{name})
		if err != nil {
			t.Fatal(err)
		}
		w := sel[0]
		p, err := r.cache().Compile(ctx, w.FullSource(), isa.BranchReg, o)
		if err != nil {
			t.Fatal(err)
		}
		live := liveCaches(t, p, w.Input, cfgs)
		tr, err := recordFetches(ctx, p, w.Input)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			for mi, pre := range []bool{false, true} {
				c := cache.New(cfg)
				tr.Replay(c, pre)
				c.Flush()
				if c.Stats != live[i][mi] {
					t.Errorf("%s (align %d) on %v, prefetch %t:\nreplay %+v\nlive   %+v",
						name, o.AlignWords, cfg, pre, c.Stats, live[i][mi])
				}
			}
		}
		if o.AlignWords == 0 {
			for i := range sums {
				addCache(&sums[i][0], &live[i][0])
				addCache(&sums[i][1], &live[i][1])
			}
		}
	}
	for _, name := range studied {
		check(name, driver.DefaultOptions())
	}
	for _, name := range []string{"dhrystone", "grep", "tinycc"} {
		check(name, aligned)
	}

	res, err := r.CacheStudy(ctx, driver.DefaultOptions(), DefaultCacheConfigs(), studied)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res {
		if want := sums[i/2][i%2]; row.Stats != want {
			t.Errorf("cache study row %v prefetch %t:\ngot  %+v\nlive %+v", row.Config, row.Prefetch, row.Stats, want)
		}
	}
}
