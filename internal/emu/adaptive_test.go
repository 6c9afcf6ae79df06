package emu

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"branchreg/internal/isa"
)

// Unit tests for the adaptive tier's building blocks. The end-to-end
// byte-identity contract lives in internal/driver (the adaptive
// differential matrix and FuzzAdaptiveDifferential); here we pin the
// pieces those tests compose: DP segmentation never fuses fewer
// dispatches than the greedy pass, profile merging is exact, and the
// promotion context fires iff a block crosses the threshold.

// segFused counts the dispatches a segmentation choice vector saves.
func segFused(ch []int8) int {
	saved := 0
	for i := 0; i < len(ch); {
		step := int(ch[i])
		saved += step - 1
		i += step
	}
	return saved
}

// greedyFused mirrors the static seal() pass: probe a triple first,
// then a pair, at each position.
func greedyFused(kinds []uopKind, pol *fusePolicy) int {
	saved := 0
	for i := 0; i < len(kinds); {
		if i+2 < len(kinds) {
			if _, ok := pol.triple(kinds[i], kinds[i+1], kinds[i+2]); ok {
				saved += 2
				i += 3
				continue
			}
		}
		if i+1 < len(kinds) {
			if _, ok := pol.pair(kinds[i], kinds[i+1]); ok {
				saved++
				i += 2
				continue
			}
		}
		i++
	}
	return saved
}

func TestDPSegmentationBeatsGreedy(t *testing.T) {
	// Exhaustive sweep over short kind sequences drawn from a small
	// alphabet with the static tables: the DP choice vector must be
	// well-formed (steps land exactly at the end) and save at least as
	// many dispatches as greedy triple-then-pair probing.
	alphabet := []uopKind{uConst, uAddImm, uAddReg, uSllImm, uLwImm, uCmpImm, uNop}
	pol := &staticPolicy
	var sweep func(seq []uopKind)
	sweep = func(seq []uopKind) {
		if len(seq) > 0 {
			src := make([]fuop, len(seq))
			for i, k := range seq {
				src[i].kind = k
			}
			ch := dpSegment(src, pol)
			// Validate structure: steps of 1/2/3 that tile the sequence,
			// each multi-step backed by a table entry.
			for i := 0; i < len(ch); {
				step := int(ch[i])
				if step < 1 || step > 3 || i+step > len(ch) {
					t.Fatalf("seq %v: malformed choice %v at %d", seq, ch, i)
				}
				switch step {
				case 2:
					if _, ok := pol.pair(seq[i], seq[i+1]); !ok {
						t.Fatalf("seq %v: choice fuses unfusable pair at %d", seq, i)
					}
				case 3:
					if _, ok := pol.triple(seq[i], seq[i+1], seq[i+2]); !ok {
						t.Fatalf("seq %v: choice fuses unfusable triple at %d", seq, i)
					}
				}
				i += step
			}
			if dp, greedy := segFused(ch), greedyFused(seq, pol); dp < greedy {
				t.Fatalf("seq %v: dp saves %d < greedy %d", seq, dp, greedy)
			}
		}
		if len(seq) == 4 {
			return
		}
		for _, k := range alphabet {
			sweep(append(seq, k))
		}
	}
	sweep(nil)
}

func TestBlockProfileMerge(t *testing.T) {
	a, b := NewBlockProfile(3), NewBlockProfile(3)
	a.Arrive[0], a.Depart[1], a.Taken[2] = 1, 2, 3
	b.Arrive[0], b.NotTaken[1], b.Penalty[2] = 10, 20, 30
	a.Merge(b)
	if a.Arrive[0] != 11 || a.Depart[1] != 2 || a.Taken[2] != 3 ||
		a.NotTaken[1] != 20 || a.Penalty[2] != 30 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestPromoteCtxFires(t *testing.T) {
	ctx := context.Background()
	arrive := make([]int64, 4)
	pc := &promoteCtx{Context: ctx, arrive: arrive, threshold: 64}
	if err := pc.Err(); err != nil {
		t.Fatalf("cold promoteCtx fired: %v", err)
	}
	arrive[2] = 63
	if err := pc.Err(); err != nil {
		t.Fatalf("below-threshold promoteCtx fired: %v", err)
	}
	arrive[2] = 64
	if err := pc.Err(); err != errPromote {
		t.Fatalf("promoteCtx did not fire at threshold: %v", err)
	}
	// Accumulated arrivals from earlier runs count toward the threshold.
	arrive[2] = 0
	pc.base = []int64{0, 0, 60, 0}
	arrive[2] = 4
	if err := pc.Err(); err != errPromote {
		t.Fatalf("promoteCtx ignored accumulated base: %v", err)
	}
	// A real context error wins over promotion.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	pc.Context = cctx
	if err := pc.Err(); err != context.Canceled {
		t.Fatalf("cancelled promoteCtx returned %v", err)
	}
}

func TestMinedVocabularyCoversStaticAndExt(t *testing.T) {
	// mineVocab admits patterns from both the static and the extended
	// tables, and nothing else.
	v := &dynVocab{pairs: map[uint16]uopKind{}, triples: map[uint32]uopKind{}}
	if k, ok := fusePair(uConst, uAddImm); !ok || k == 0 {
		t.Fatal("static pair const+addi missing from fusePair")
	}
	if _, ok := fusePairExt(uAddImm, uCmpImm); !ok {
		t.Fatal("extended pair addi+cmpi missing from fusePairExt")
	}
	if _, ok := fusePair(uAddImm, uCmpImm); ok {
		t.Fatal("addi+cmpi unexpectedly in the static table; ext test is vacuous")
	}
	if _, ok := fuseTripleExt(uConst, uAddImm, uLwImm); !ok {
		t.Fatal("extended triple const+addi+lwi missing from fuseTripleExt")
	}
	if _, ok := v.pair(uConst, uAddImm); ok {
		t.Fatal("empty vocabulary resolved a pair")
	}
}

// promotedLoopState builds a countdown loop, runs it twice on the
// adaptive tier — the first run banks a warmup that crosses the
// threshold, the second enters the promoted form directly — and
// returns the weak key of its promotion state. The program itself does
// not escape, so it is unreachable once this returns.
func promotedLoopState(t *testing.T) weak.Pointer[isa.Program] {
	t.Helper()
	p := buildBase(t, func(f *isa.Function) {
		f.Emit(isa.Instr{Op: isa.OpAdd, Rd: 2, Rs1: 0, UseImm: true, Imm: 200})
		f.Bind("loop")
		f.Emit(isa.Instr{Op: isa.OpSub, Rd: 2, Rs1: 2, UseImm: true, Imm: 1})
		f.Emit(isa.Instr{Op: isa.OpCmp, Rs1: 2, UseImm: true, Imm: 0})
		f.Emit(isa.Instr{Op: isa.OpB, Cond: isa.CondNE, Target: "loop"})
		f.Emit(isa.Instr{Op: isa.OpNop})
		f.Emit(isa.Instr{Op: isa.OpTrap, UseImm: true, Imm: isa.TrapExit})
	})
	for run := 0; run < 2; run++ {
		m, err := New(p, "")
		if err != nil {
			t.Fatal(err)
		}
		m.Loop = LoopAdaptive
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if promoted := m.Refusion.Promoted; promoted != (run == 1) {
			t.Fatalf("run %d: promoted = %v", run, promoted)
		}
	}
	key := weak.Make(p)
	if _, ok := adaptiveStates.Load(key); !ok {
		t.Fatal("no promotion state for a live program")
	}
	return key
}

// TestAdaptiveStateFreedWithProgram: promotion state must not outlive
// its program, or every program a server ever compiled stays reachable
// through the state table.
func TestAdaptiveStateFreedWithProgram(t *testing.T) {
	key := promotedLoopState(t)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if _, ok := adaptiveStates.Load(key); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("promotion state still held 5s after its program became unreachable")
		}
		time.Sleep(time.Millisecond)
	}
	if key.Value() != nil {
		t.Fatal("program still reachable")
	}
}
