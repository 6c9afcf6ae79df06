package driver

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"branchreg/internal/isa"
)

// cacheKey identifies one compilation: what source, for which machine,
// under which options. Two compilations with equal keys produce
// instruction-identical programs, so the second one is pure waste — the
// cache exists to make `brbench -all` (which revisits the same programs
// for Table I, the cycle estimates, Figure 9, the cache study, and the
// ablations) compile each (program, machine, options) at most once.
type cacheKey struct {
	src  [sha256.Size]byte
	kind isa.Kind
	opts string // Options.Fingerprint()
}

// cacheEntry is a singleflight slot: the first requester compiles while
// later requesters wait on done. Once done is closed, p and err never
// change, so a waiter holding the entry keeps its result even if the
// cache evicts the entry meanwhile.
type cacheEntry struct {
	key  cacheKey
	done chan struct{}
	p    *isa.Program
	err  error
	// size is the entry's charge against the budget; elem is its place
	// on the LRU list, nil while in flight.
	size int64
	elem *list.Element
}

// errEntryBytes is what a cached compile error is charged: the entry,
// its map slot and a short message.
const errEntryBytes = 512

// CacheStats counts cache traffic. Misses counts compiler invocations,
// Hits counts requests served from a finished or in-flight compilation,
// and Entries counts the keys currently held. An unbounded cache never
// drops a key, so there Entries counts distinct keys and Misses ==
// Entries is the observable form of the "each program compiled at most
// once" guarantee; a bounded cache recompiles a key it evicted.
type CacheStats struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int64 `json:"entries"`
}

// CacheUsage is the cache's memory accounting: the estimated bytes of
// the programs it holds and how many entries the budget has evicted.
type CacheUsage struct {
	Bytes     int64
	Evictions int64
}

// Cache memoizes Compile. A linked *isa.Program is never mutated after
// Link (the emulator copies the data image into its own memory), so a
// cached program is shared freely across goroutines; concurrent requests
// for the same key block on a single compilation (singleflight).
// Compilation errors are cached too: a workload with a syntax error fails
// every variant without recompiling.
//
// A bounded cache (NewBoundedCache) charges every finished entry its
// estimated heap size and evicts least recently used entries while the
// total exceeds the budget, so a server fed an endless stream of new
// sources holds a fixed working set of programs. Evicting a program
// drops the cache's last reference to it; everything derived from it
// (the emulator's adaptive promotion state) is freed with it.
type Cache struct {
	mu        sync.Mutex
	entries   map[cacheKey]*cacheEntry
	lru       *list.List // finished entries, front = most recently used
	maxBytes  int64      // <= 0: unbounded
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
	// results, when attached with SetResultCache, memoizes whole
	// execution Results on top of the compile memoization — see
	// rescache.go for the determinism argument and the eligibility
	// rules. nil (the default) preserves the historical contract:
	// compilation is cached, execution never is.
	results *ResultCache
}

// NewCache returns an empty, unbounded compile cache: every key stays
// compiled for the cache's lifetime. It suits a caller whose key set is
// fixed in advance, such as an experiment spec.
func NewCache() *Cache { return NewBoundedCache(0) }

// NewBoundedCache returns an empty compile cache holding at most
// maxBytes of estimated program size (0 or less: unbounded). A program
// larger than the whole budget is returned to its callers but not kept.
func NewBoundedCache(maxBytes int64) *Cache {
	return &Cache{entries: map[cacheKey]*cacheEntry{}, lru: list.New(), maxBytes: maxBytes}
}

// SetResultCache attaches (or, with nil, detaches) a deterministic
// result cache consulted by Exec. Attach before the cache is shared
// across goroutines; the field is not synchronized.
func (c *Cache) SetResultCache(rc *ResultCache) { c.results = rc }

// ResultCache returns the attached result cache, or nil.
func (c *Cache) ResultCache() *ResultCache { return c.results }

// Compile returns the cached program for (src, kind, o), compiling it on
// first request. The context governs only this caller's wait: a
// cancelled waiter returns ctx.Err() while the in-flight compilation
// finishes and stays cached for others.
func (c *Cache) Compile(ctx context.Context, src string, kind isa.Kind, o Options) (*isa.Program, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := cacheKey{src: sha256.Sum256([]byte(src)), kind: kind, opts: o.Fingerprint()}

	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		mCacheHits.Inc()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.p, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e = &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	mCacheMisses.Inc()
	c.mu.Unlock()

	// Compile under context.Background(): the result outlives this
	// caller, and caching a ctx.Err() would poison the entry for others.
	//
	// done is closed by defer, and a compiler panic is converted into a
	// cached error: if the panic escaped before done closed, every future
	// waiter on this key would block forever (the singleflight wedge),
	// turning one bad program into a stuck server.
	func() {
		defer close(e.done)
		defer func() {
			if p := recover(); p != nil {
				e.p, e.err = nil, fmt.Errorf("%w: %v", ErrCompilePanic, p)
			}
		}()
		e.p, e.err = compileFn(context.Background(), src, kind, o)
	}()
	c.retain(e)
	return e.p, e.err
}

// retain charges a finished entry against the budget and puts it on the
// LRU list, evicting from the tail while the cache is over budget. An
// entry larger than the whole budget is dropped at once; its callers
// already hold the result.
func (c *Cache) retain(e *cacheEntry) {
	size := int64(errEntryBytes)
	if e.p != nil {
		size = programBytes(e.p)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && size > c.maxBytes {
		delete(c.entries, e.key)
		return
	}
	e.size = size
	e.elem = c.lru.PushFront(e)
	c.bytes += e.size
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		old.elem = nil
		delete(c.entries, old.key)
		c.bytes -= old.size
		c.evictions++
	}
}

// ErrCompilePanic marks a compilation that panicked instead of
// returning: a compiler bug, cached like any other compile error so the
// key stays usable, but distinguishable (errors.Is) so servers can
// report it as an internal fault rather than blaming the client.
var ErrCompilePanic = errors.New("driver: compiler panicked")

// compileFn is Compile, indirected so the cache's panic-containment
// path is testable with a deliberately panicking compiler.
var compileFn = Compile

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Requests: c.hits + c.misses,
		Hits:     c.hits,
		Misses:   c.misses,
		Entries:  int64(len(c.entries)),
	}
}

// Usage returns the cache's memory accounting.
func (c *Cache) Usage() CacheUsage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheUsage{Bytes: c.bytes, Evictions: c.evictions}
}

// mapSlotOverhead approximates a map's per-entry cost beyond its key
// and value: control bytes, the empty slots the load factor keeps and
// the growth headroom of a power-of-two table.
const mapSlotOverhead = 24

// programBytes estimates the heap a linked program keeps live: its text
// with the per-instruction metadata, the per-function code it was linked
// from, the symbol maps and the data segment. Strings shared between
// these (Link copies instructions, not their labels) are counted once.
// The estimate tracks the measured live heap of the workloads within a
// few percent (TestProgramBytesTracksHeap); the budget needs no more.
func programBytes(p *isa.Program) int64 {
	const instr = int64(unsafe.Sizeof(isa.Instr{}))
	n := int64(unsafe.Sizeof(*p))
	n += int64(cap(p.Text)) * instr
	n += int64(cap(p.TextMeta)) * int64(unsafe.Sizeof(isa.InstrMeta{}))
	n += int64(cap(p.FuncOfPC)) * int64(unsafe.Sizeof(""))
	n += int64(cap(p.DataImage))
	n += symBytes(p.CodeSyms) + symBytes(p.DataSyms) + symBytes(p.FuncStarts)
	for _, f := range p.Funcs {
		n += int64(unsafe.Sizeof(*f)) + int64(len(f.Name)) + symBytes(f.Labels)
		n += int64(cap(f.Code)) * instr
		for i := range f.Code {
			in := &f.Code[i]
			n += int64(len(in.Target) + len(in.DataTarget) + len(in.Comment))
		}
	}
	for _, d := range p.Data {
		n += int64(unsafe.Sizeof(*d)) + int64(len(d.Label))
		n += int64(cap(d.Words))*4 + int64(cap(d.Bytes)) + int64(cap(d.Floats))*8
		n += int64(cap(d.Relocs)) * int64(unsafe.Sizeof(isa.DataReloc{}))
		n += int64(cap(d.Addrs)) * int64(unsafe.Sizeof(""))
	}
	return n
}

// symBytes estimates a string-keyed symbol map: key data, key header,
// value and slot overhead per entry.
func symBytes[V int | int32](m map[string]V) int64 {
	var v V
	per := int64(unsafe.Sizeof("")) + int64(unsafe.Sizeof(v)) + mapSlotOverhead
	n := int64(len(m)) * per
	for k := range m {
		n += int64(len(k))
	}
	return n
}
