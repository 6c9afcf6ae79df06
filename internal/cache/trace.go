package cache

// Trace is a recorded instruction-fetch stream: the demand fetches and
// branch-target prefetches of one run, in order. Its Fetch and Prefetch
// methods match the emulator's hooks, so a run records itself once and
// every cache configuration replays the stream instead of re-emulating
// the program.
//
// The stream is compact: one entry per run of sequential fetches and
// one per prefetch request.
type Trace struct {
	entries []traceEntry
}

// traceEntry is n sequential demand fetches starting at addr, or, when
// n is 0, one prefetch of addr.
type traceEntry struct {
	addr int32
	n    int32
}

// Fetch records a demand fetch of addr, extending the current run when
// addr is the next sequential word.
func (t *Trace) Fetch(addr int32) {
	if k := len(t.entries) - 1; k >= 0 {
		if e := &t.entries[k]; e.n > 0 && addr == e.addr+4*e.n {
			e.n++
			return
		}
	}
	t.entries = append(t.entries, traceEntry{addr: addr, n: 1})
}

// Prefetch records a prefetch request for the line holding addr.
func (t *Trace) Prefetch(addr int32) {
	t.entries = append(t.entries, traceEntry{addr: addr})
}

// Replay drives c with the recorded stream, exactly as the live hooks
// would have: Fetch for every recorded fetch and, when prefetch is set,
// Prefetch for every recorded request. Like a live run, it leaves the
// final Flush to the caller.
func (t *Trace) Replay(c *Cache, prefetch bool) {
	for _, e := range t.entries {
		if e.n == 0 {
			if prefetch {
				c.Prefetch(e.addr)
			}
			continue
		}
		c.fetchRun(e.addr, int(e.n))
	}
}
