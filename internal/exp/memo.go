package exp

import (
	"context"
	"errors"
	"sync"

	"branchreg/internal/cache"
	"branchreg/internal/emu"
	"branchreg/internal/isa"
)

// runKey names one emulation: a compiled program and its input.
type runKey struct {
	p     *isa.Program
	input string
}

// memo is a singleflight map: the first get of a key computes its value
// while concurrent callers of the same key wait for it. A computation
// that fails with a context error or panics is dropped, so waiters
// compute it again under their own context instead of inheriting a
// cancelled caller's failure.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{}
	kept bool // the computation returned and its result stands
	v    V
	err  error
}

func (c *memo[K, V]) get(ctx context.Context, k K, f func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		e, ok := c.m[k]
		if !ok {
			if c.m == nil {
				c.m = make(map[K]*memoEntry[V])
			}
			e = &memoEntry[V]{done: make(chan struct{})}
			c.m[k] = e
			c.mu.Unlock()
			c.fill(k, e, f)
			return e.v, e.err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if e.kept {
			return e.v, e.err
		}
	}
}

func (c *memo[K, V]) fill(k K, e *memoEntry[V], f func() (V, error)) {
	defer func() {
		if !e.kept {
			c.mu.Lock()
			delete(c.m, k)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.v, e.err = f()
	e.kept = !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded)
}

// recordFetches runs p once on the instrumented loop and records its
// instruction-fetch stream, prefetch requests included, for replay into
// any number of cache configurations.
func recordFetches(ctx context.Context, p *isa.Program, input string) (*cache.Trace, error) {
	m, err := emu.New(p, input)
	if err != nil {
		return nil, err
	}
	tr := &cache.Trace{}
	m.Hooks.Fetch = tr.Fetch
	m.Hooks.Prefetch = tr.Prefetch
	if _, err := m.RunContext(ctx); err != nil {
		return nil, err
	}
	mTraceRecorded.Inc()
	return tr, nil
}

// runStats runs p once on the fast hook-free engines and returns its
// counters, the input of every cycle model and pipeline simulation.
func runStats(ctx context.Context, p *isa.Program, input string) (emu.Stats, error) {
	m, err := emu.New(p, input)
	if err != nil {
		return emu.Stats{}, err
	}
	if _, err := m.RunContext(ctx); err != nil {
		return emu.Stats{}, err
	}
	mValidationEmulations.Inc()
	return m.Stats, nil
}
