package main

import (
	"fmt"
	"math"
	"sort"

	"branchreg/internal/isa"
	"branchreg/internal/workloads"
)

// Every input the benchmark sends is a pure function of the seed: the
// order cells are requested in, the salt appended to each serve-unique
// source, and the open loop's arrival times. Nothing reads the clock or a
// global random source to decide what to send.

// cell is one (program, machine) pair: a workload from internal/workloads
// compiled for one of the two machines.
type cell struct {
	Program string
	Kind    isa.Kind
}

func (c cell) Machine() string { return machineName(c.Kind) }

// Key names the cell as "<program>/<machine>", the golden-data key.
func (c cell) Key() string { return c.Program + "/" + c.Machine() }

func machineName(k isa.Kind) string {
	if k == isa.Baseline {
		return "baseline"
	}
	return "branchreg"
}

// allCells is the full 19×2 matrix in suite order, baseline first.
func allCells() []cell {
	var out []cell
	for _, w := range workloads.All() {
		out = append(out, cell{w.Name, isa.Baseline}, cell{w.Name, isa.BranchReg})
	}
	return out
}

// shortLimit is the dynamic-instruction bound below which a program is
// short enough for the compile-bound serve-unique mix.
const shortLimit = 1_000_000

// shortCells is serve-unique's matrix: every cell of the programs that
// stay under shortLimit instructions on both machines (golden counts).
func shortCells(g *golden) []cell {
	var out []cell
	cells := allCells()
	for i := 0; i < len(cells); i += 2 {
		b, r := g.Cells[cells[i].Key()], g.Cells[cells[i+1].Key()]
		if b.Instructions < shortLimit && r.Instructions < shortLimit {
			out = append(out, cells[i], cells[i+1])
		}
	}
	return out
}

// workloadSource returns a program's full MC source and its stdin.
func workloadSource(name string) (src, input string) {
	w, ok := workloads.ByName(name)
	if !ok {
		panic("perfbench: unknown program " + name)
	}
	return w.FullSource(), w.Input
}

// Salt index ranges: the timed closed loop numbers its requests from 0,
// the open loop from openBase and warm-up passes from warmBase, so no two
// requests of one run share a salt.
const (
	openBase = 1 << 30
	warmBase = 1 << 31
)

// saltID is the salt of request i under seed: seed in the high 32 bits,
// the request index in the low 32, so salts of different seeds are
// disjoint and salts within a run are distinct.
func saltID(seed uint64, i int) uint64 { return seed<<32 | uint64(uint32(i)) }

// saltSource appends a never-called function named after the salt, which
// changes the source's hash (so the compile and result caches miss)
// without changing the program's output or instruction count.
func saltSource(src string, salt uint64) string {
	return fmt.Sprintf("%s\nint bench_salt_%d(void) { return %d; }\n", src, salt, salt&0x7fffffff)
}

// rng is splitmix64: tiny, fast, and fixed here so a seed means the same
// stream on every Go release.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{seed ^ stream*0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Streams separate the independent draws one seed makes.
const (
	streamClosed uint64 = iota + 1
	streamOpen
	streamArrivals
	streamTrace
)

// order returns count cell indices in [0, n): back-to-back seeded
// permutations, so every whole pass of n requests covers each cell once
// and the work per pass is the same for every seed.
func order(seed, stream uint64, n, count int) []int {
	r := newRNG(seed, stream)
	out := make([]int, 0, count+n)
	for len(out) < count {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out = append(out, perm...)
	}
	return out[:count]
}

// arrivals returns the open loop's schedule: n = rate×window arrivals of
// a Poisson process conditioned on its count, i.e. sorted uniform times
// over the window. Fixing the count keeps the offered load identical
// across seeds; only the spacing varies.
func arrivals(seed uint64, rate, window float64) []float64 {
	n := int(math.Round(rate * window))
	r := newRNG(seed, streamArrivals)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float() * window
	}
	sort.Float64s(out)
	return out
}
