// Package cache simulates the instruction cache organization of paper §8:
// a set-associative cache with LRU replacement in which an assignment to a
// branch register directs the cache to prefetch the line holding the
// branch target. In-flight fills carry a busy bit; a demand fetch that
// arrives while its line is being filled waits only the remaining cycles.
// The simulator also measures the §9 concerns: prefetch traffic that is
// never used and pollution evictions.
package cache

import "fmt"

// Config describes one cache organization.
type Config struct {
	LineWords   int // words per line
	Sets        int // number of sets
	Assoc       int // lines per set
	MissPenalty int // cycles to fill a line from memory
}

// DefaultConfig is the study's base organization: 2-way, 8-word lines,
// 64 sets (4 KB).
var DefaultConfig = Config{LineWords: 8, Sets: 64, Assoc: 2, MissPenalty: 8}

// SizeBytes returns the total capacity.
func (c Config) SizeBytes() int { return c.LineWords * 4 * c.Sets * c.Assoc }

func (c Config) String() string {
	return fmt.Sprintf("%dB/%d-way/%d-word lines", c.SizeBytes(), c.Assoc, c.LineWords)
}

// Stats are the dynamic cache measurements.
type Stats struct {
	Fetches       int64 // demand instruction fetches
	Hits          int64
	Misses        int64 // demand misses (full penalty)
	PartialWaits  int64 // demand fetches that caught an in-flight prefetch
	DelayCycles   int64 // total cycles demand fetches waited
	Prefetches    int64 // prefetch requests issued
	PrefetchDup   int64 // prefetches that hit (line already present/filling)
	PrefetchUsed  int64 // prefetched lines later touched by a demand fetch
	PrefetchWaste int64 // prefetched lines evicted or left untouched
	Pollution     int64 // useful lines evicted by prefetched lines
}

// HitRate returns demand hit ratio.
func (s *Stats) HitRate() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Fetches)
}

type line struct {
	tag        int32
	valid      bool
	lastUse    int64
	fillDone   int64 // cycle the fill completes (busy until then)
	prefetched bool  // brought in by a prefetch
	touched    bool  // referenced by a demand fetch since filled
}

// Cache is one simulated instruction cache.
type Cache struct {
	cfg   Config
	sets  [][]line
	now   int64
	Stats Stats

	// pow2 is set when the line size and set count are both powers of
	// two: addrToLine then indexes with lineShift and setMask instead of
	// dividing by sizes only known at run time.
	pow2      bool
	lineShift uint
	setMask   int32
}

// New builds a cache. Sets and Assoc may be any positive count;
// LineWords must be positive. Power-of-two line sizes and set counts
// index fastest.
func New(cfg Config) *Cache {
	sets := make([][]line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]line, cfg.Assoc)
	}
	c := &Cache{cfg: cfg, sets: sets}
	lineBytes := 4 * cfg.LineWords
	if isPow2(lineBytes) && isPow2(cfg.Sets) {
		c.pow2 = true
		for 1<<c.lineShift < lineBytes {
			c.lineShift++
		}
		c.setMask = int32(cfg.Sets - 1)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// addrToLine maps a byte address to its set and tag (the line address).
// The shift and mask agree with the division for every non-negative
// address; negative ones take the division, which truncates toward zero.
func (c *Cache) addrToLine(addr int32) (set int, tag int32) {
	if c.pow2 && addr >= 0 {
		lineAddr := addr >> c.lineShift
		return int(lineAddr & c.setMask), lineAddr
	}
	lineAddr := addr / int32(4*c.cfg.LineWords)
	return int(uint32(lineAddr) % uint32(c.cfg.Sets)), lineAddr
}

// find returns the way index holding tag, or -1.
func (c *Cache) find(set int, tag int32) int {
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return i
		}
	}
	return -1
}

// victim picks the LRU way of the set.
func (c *Cache) victim(set int) int {
	v := 0
	for i := range c.sets[set] {
		if !c.sets[set][i].valid {
			return i
		}
		if c.sets[set][i].lastUse < c.sets[set][v].lastUse {
			v = i
		}
	}
	return v
}

// Fetch simulates a demand instruction fetch of addr, advancing time by
// one cycle plus any miss delay. It returns the delay cycles the fetch
// waited.
func (c *Cache) Fetch(addr int32) int64 {
	delay, _ := c.fetch(addr)
	return delay
}

// fetch is Fetch, also returning the line that now holds addr. On
// return that line's fill is complete (a miss or partial wait advanced
// time to its fillDone), so an immediate re-fetch of it is a plain hit.
func (c *Cache) fetch(addr int32) (int64, *line) {
	c.now++
	c.Stats.Fetches++
	set, tag := c.addrToLine(addr)
	if w := c.find(set, tag); w >= 0 {
		l := &c.sets[set][w]
		var delay int64
		if l.fillDone > c.now {
			// Busy bit set: the line is still arriving (paper §8's
			// prefetch-in-progress case).
			delay = l.fillDone - c.now
			c.Stats.PartialWaits++
		} else {
			c.Stats.Hits++
		}
		if l.prefetched && !l.touched {
			c.Stats.PrefetchUsed++
			l.touched = true
		}
		l.lastUse = c.now
		c.now += delay
		c.Stats.DelayCycles += delay
		return delay, l
	}
	// Demand miss: full penalty.
	c.Stats.Misses++
	delay := int64(c.cfg.MissPenalty)
	l := c.install(set, tag, false)
	c.now += delay
	c.Stats.DelayCycles += delay
	return delay, l
}

// fetchRun is n demand fetches of the sequential words starting at addr.
// It equals n Fetch calls, but pays one lookup per line: once a word's
// line is resident and complete, the rest of the run's words in that
// line are hits that only advance time.
func (c *Cache) fetchRun(addr int32, n int) {
	lineBytes := int32(4 * c.cfg.LineWords)
	for n > 0 {
		_, l := c.fetch(addr)
		n--
		if addr < 0 {
			addr += 4
			continue
		}
		k := int((lineBytes-addr%lineBytes)/4) - 1 // words left in the line
		if k > n {
			k = n
		}
		if k > 0 {
			c.now += int64(k)
			c.Stats.Fetches += int64(k)
			c.Stats.Hits += int64(k)
			l.lastUse = c.now
		}
		addr += 4 * int32(k+1)
		n -= k
	}
}

// Prefetch simulates the side effect of a branch-register assignment: the
// line holding addr is requested from memory if absent. Prefetches do not
// advance time (they overlap execution, paper §8).
func (c *Cache) Prefetch(addr int32) {
	c.Stats.Prefetches++
	set, tag := c.addrToLine(addr)
	if c.find(set, tag) >= 0 {
		c.Stats.PrefetchDup++
		return
	}
	c.install(set, tag, true)
}

// install fills a line, accounting for pollution and wasted prefetches,
// and returns it.
func (c *Cache) install(set int, tag int32, prefetched bool) *line {
	w := c.victim(set)
	l := &c.sets[set][w]
	if l.valid {
		if l.prefetched && !l.touched {
			c.Stats.PrefetchWaste++
		}
		if prefetched && l.touched {
			// A prefetch displaced a line the program had been using.
			c.Stats.Pollution++
		}
	}
	*l = line{
		tag:        tag,
		valid:      true,
		lastUse:    c.now,
		fillDone:   c.now + int64(c.cfg.MissPenalty),
		prefetched: prefetched,
		touched:    false,
	}
	if !prefetched {
		l.touched = true
	}
	return l
}

// Flush ends the run: untouched prefetched lines still resident count as
// waste.
func (c *Cache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && l.prefetched && !l.touched {
				c.Stats.PrefetchWaste++
			}
		}
	}
}
