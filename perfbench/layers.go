package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"branchreg/internal/cache"
	"branchreg/internal/codegen"
	"branchreg/internal/core"
	"branchreg/internal/driver"
	"branchreg/internal/emu"
	"branchreg/internal/exp"
	"branchreg/internal/guard"
	"branchreg/internal/ir"
	"branchreg/internal/irgen"
	"branchreg/internal/isa"
	"branchreg/internal/mc"
	"branchreg/internal/obs"
	"branchreg/internal/opt"
	"branchreg/internal/serve"
)

// The traced run. It replays one workload's inputs through each layer's
// public functions with a span around every call, and turns the spans'
// self times and the layers' own counters into per-layer metrics. It
// never measures end-to-end figures: those come from the untraced run.

// Repetitions: compile phases and engine passes are repeated and the
// median pass reported.
const (
	compilePasses = 5
	enginePasses  = 3
	cellReps      = 5
	// replayPasses is how many whole passes over the matrix the serve,
	// guard and driver replays send.
	replayPasses = 2
	// lateWindow is the open loop whose generator lateness the traced
	// run reports.
	lateWindow = 2 * time.Second
	// shadowPasses is how many passes over the short cells the shadow
	// replay sends: brserve shadows every 32nd execution of a class, so
	// each class needs 32 before sampling can show.
	shadowPasses = 32
)

// traceBase numbers the traced run's salts apart from every other range;
// the shadow replay numbers its own from shadowBase.
const (
	traceBase  = 3 << 30
	shadowBase = traceBase + 1<<29
)

// input is one compiled cell of the workload's input set.
type input struct {
	cell
	src, stdin string
	prog       *isa.Program
}

// traceTraffic is the request regime a workload's traced replays use.
// harness-all executes every cell without a result cache, as rerun does.
func traceTraffic(e *env) *traffic {
	w, ok := serveWorkloads[e.workload]
	if !ok {
		w = serveWorkloads["serve-rerun"]
		w.name = e.workload
	}
	return newTraffic(w, e.seed, e.golden)
}

// tracedRun measures every per-layer metric on e's workload inputs, checks
// each result it computes against the golden data, and writes the spans
// as a Chrome trace under the build directory.
func tracedRun(ctx context.Context, e *env) (result, error) {
	tr := newTracer()
	t := traceTraffic(e)
	var tl tally
	res := newResult(0, 0)
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	var ins []input
	for ci, c := range t.cells {
		src, stdin := workloadSource(c.Program)
		if t.w.unique {
			src = saltSource(src, saltID(e.seed, traceBase+ci))
		}
		ins = append(ins, input{cell: c, src: src, stdin: stdin})
	}
	steps := []func() error{
		func() error { return compileLayers(ctx, tr, ins, set) },
		func() error { return emuLayer(ctx, tr, ins, t.g, &tl, set) },
		func() error { return cellRatios(ctx, tr, t.g, &tl, set) },
		func() error { return serveLayers(ctx, tr, t, &tl, set) },
		func() error { return expLayer(ctx, tr, set) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return result{}, err
		}
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
	}
	if tl.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checked results failed; first: %v\n", tl.failed, tl.attempted, tl.firstErr)
	}
	res.Attempted, res.Failed, res.Correct = tl.attempted, tl.failed, tl.failed == 0 && tl.attempted > 0

	dir := filepath.Join(e.root, buildDirName, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed)))
	if err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return result{}, err
	}
	if err := f.Close(); err != nil {
		return result{}, err
	}
	fmt.Printf("trace: %s\n", f.Name())
	return res, nil
}

func irInsts(u *ir.Unit) int {
	n := 0
	for _, f := range u.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Ins)
		}
	}
	return n
}

// compileLayers times each compile phase over the input set, one span
// per public call, and compiles the programs the later layers run.
// mc.Parse lexes its input itself, so parse time is the Parse span minus
// the separately timed Tokenize span.
func compileLayers(ctx context.Context, tr *tracer, ins []input, set func(string, float64, string)) error {
	o := driver.DefaultOptions()
	names := []string{"mc.lex", "mc.parse", "mc.check", "irgen.lower", "opt.run", "codegen.gen", "core.gen", "driver.compile"}
	perPass := map[string][]float64{}
	var tokens, irgenInsts, optInsts, baseWords, brmWords int
	for pass := 0; pass < compilePasses; pass++ {
		mark := tr.mark()
		tokens, irgenInsts, optInsts, baseWords, brmWords = 0, 0, 0, 0, 0
		for i := range ins {
			in := &ins[i]
			root := tr.begin("compile", 0, i)
			var err error
			var toks []mc.Token
			var u *mc.Unit
			var iu *ir.Unit
			tr.timed("mc.lex", root, i, func() { toks, err = mc.Tokenize(in.src) })
			if err == nil {
				tr.timed("mc.parse", root, i, func() { u, err = mc.Parse(in.src) })
			}
			if err == nil {
				tr.timed("mc.check", root, i, func() { err = mc.Check(u) })
			}
			if err == nil {
				tr.timed("irgen.lower", root, i, func() { iu, err = irgen.Lower(u) })
			}
			if err == nil {
				irgenInsts += irInsts(iu)
				tr.timed("opt.run", root, i, func() { err = opt.RunUnit(iu, o.Opt) })
			}
			var p *isa.Program
			if err == nil {
				optInsts += irInsts(iu)
				if in.Kind == isa.Baseline {
					tr.timed("codegen.gen", root, i, func() { p, err = codegen.GenBaseline(iu) })
				} else {
					tr.timed("core.gen", root, i, func() { p, err = core.GenBranchReg(iu, o.BRM) })
				}
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("%s: %w", in.Key(), err)
			}
			tokens += len(toks)
			if in.Kind == isa.Baseline {
				baseWords += len(p.Text)
			} else {
				brmWords += len(p.Text)
			}
			tr.timed("driver.compile", 0, i, func() { in.prog, err = driver.Compile(ctx, in.src, in.Kind, o) })
			if err != nil {
				return fmt.Errorf("%s: %w", in.Key(), err)
			}
		}
		self := tr.selfSince(mark)
		for _, n := range names {
			perPass[n] = append(perPass[n], ms(self[n]))
		}
		perPass["mc.parse.net"] = append(perPass["mc.parse.net"], ms(self["mc.parse"]-self["mc.lex"]))
	}
	set("mc.lex_ms", median(perPass["mc.lex"]), "ms")
	set("mc.parse_ms", median(perPass["mc.parse.net"]), "ms")
	set("mc.check_ms", median(perPass["mc.check"]), "ms")
	set("mc.tokens", float64(tokens), "count")
	set("irgen.lower_ms", median(perPass["irgen.lower"]), "ms")
	set("irgen.ir_insts", float64(irgenInsts), "count")
	set("opt.run_ms", median(perPass["opt.run"]), "ms")
	set("opt.ir_insts", float64(optInsts), "count")
	set("codegen.gen_ms", median(perPass["codegen.gen"]), "ms")
	set("codegen.text_words", float64(baseWords), "count")
	set("core.gen_ms", median(perPass["core.gen"]), "ms")
	set("core.text_words", float64(brmWords), "count")
	set("driver.compile_ms", median(perPass["driver.compile"]), "ms")
	return nil
}

// engines are the four serving engines measured on precompiled programs.
var engines = []struct {
	name string
	loop emu.LoopMode
}{
	{"fused", emu.LoopFused},
	{"fast", emu.LoopFast},
	{"adaptive", emu.LoopAdaptive},
	{"instrumented", emu.LoopInstrumented},
}

// runCell executes a precompiled program on one engine, checks the result
// and returns its wall clock.
func runCell(ctx context.Context, tr *tracer, span string, i int, in *input, loop emu.LoopMode, g *golden, tl *tally) (*driver.Result, time.Duration) {
	var res *driver.Result
	var err error
	d := tr.timed(span, 0, i, func() {
		res, err = driver.Exec(ctx, driver.Request{Program: in.prog, Input: in.stdin, Loop: loop})
	})
	if err == nil {
		err = g.check(in.Key(), res.Output, res.Status, res.Stats.Instructions)
	}
	tl.add(outcome{err: err})
	return res, d
}

// emuLayer measures the emulator on the input set's programs: decode
// cost (a fused run stopped by a one-instruction budget), each engine's
// throughput, the instrumented engine with the studies' cache and
// pipeline hooks, and how many programs the adaptive tier promotes.
func emuLayer(ctx context.Context, tr *tracer, ins []input, g *golden, tl *tally, set func(string, float64, string)) error {
	var decode []float64
	for pass := 0; pass < enginePasses; pass++ {
		var total time.Duration
		for i := range ins {
			var err error
			total += tr.timed("emu.decode", 0, i, func() {
				_, err = driver.Exec(ctx, driver.Request{Program: ins[i].prog, Input: ins[i].stdin, Loop: emu.LoopFused, MaxInstructions: 1})
			})
			var trap *emu.Trap
			if !errors.As(err, &trap) || trap.Kind != emu.TrapStepBudget {
				return fmt.Errorf("%s: one-instruction run: want a step-budget trap, got %v", ins[i].Key(), err)
			}
		}
		decode = append(decode, ms(total))
	}
	set("emu.decode_ms", median(decode), "ms")

	var insts int64
	for i := range ins {
		insts += g.Cells[ins[i].Key()].Instructions
	}
	set("emu.insts", float64(insts), "count")

	// Adaptive promotion state is banked per program across runs, as in
	// brserve; one untimed pass lets the long programs promote first.
	for i := range ins {
		runCell(ctx, tr, "emu.adaptive.warm", i, &ins[i], emu.LoopAdaptive, g, tl)
	}
	for _, eng := range engines {
		passes := enginePasses
		if eng.loop == emu.LoopInstrumented {
			passes = 1
		}
		var rates []float64
		promoted := 0
		for pass := 0; pass < passes; pass++ {
			var total time.Duration
			promoted = 0
			for i := range ins {
				res, d := runCell(ctx, tr, "emu."+eng.name, i, &ins[i], eng.loop, g, tl)
				total += d
				if res != nil && res.Refusion.Promoted {
					promoted++
				}
			}
			rates = append(rates, float64(insts)/total.Seconds()/1e6)
		}
		set("emu."+eng.name+".minsts_s", median(rates), "Minst/s")
		if eng.loop == emu.LoopAdaptive {
			set("emu.adaptive.promoted_ratio", ratio(promoted, len(ins)), "ratio")
		}
	}

	// The hooked engine: the instrumented loop with an instruction cache
	// on the fetch and prefetch hooks (the cache study) and a transfer
	// hook (the pipeline model), as the experiments run it.
	var total time.Duration
	for i := range ins {
		in := &ins[i]
		mach, err := emu.New(in.prog, in.stdin)
		if err != nil {
			return err
		}
		ic := cache.New(exp.DefaultCacheConfigs()[0])
		var transfers int64
		mach.Hooks.Fetch = func(addr int32) { ic.Fetch(addr) }
		mach.Hooks.Prefetch = func(addr int32) { ic.Prefetch(addr) }
		mach.Hooks.Transfer = func(emu.TransferKind, bool, int64) { transfers++ }
		var status int32
		total += tr.timed("emu.hooked", 0, i, func() { status, err = mach.RunContext(ctx) })
		if err == nil {
			err = g.check(in.Key(), mach.Output(), status, mach.Stats.Instructions)
		}
		tl.add(outcome{err: err})
	}
	set("emu.hooked.minsts_s", float64(insts)/total.Seconds()/1e6, "Minst/s")
	return nil
}

// cellRatios compares the adaptive tier with the static fused engine on
// every cell of the 19×2 matrix (whatever the workload), alternating the
// two per repetition. The ratio is fused time over adaptive time: above
// 1 the adaptive tier is faster.
func cellRatios(ctx context.Context, tr *tracer, g *golden, tl *tally, set func(string, float64, string)) error {
	o := driver.DefaultOptions()
	for i, c := range allCells() {
		src, stdin := workloadSource(c.Program)
		p, err := driver.Compile(ctx, src, c.Kind, o)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Key(), err)
		}
		in := &input{cell: c, src: src, stdin: stdin, prog: p}
		runCell(ctx, tr, "emu.cell.warm", i, in, emu.LoopAdaptive, g, tl)
		var fused, adaptive []float64
		for r := 0; r < cellReps; r++ {
			_, df := runCell(ctx, tr, "emu.cell.fused", i, in, emu.LoopFused, g, tl)
			_, da := runCell(ctx, tr, "emu.cell.adaptive", i, in, emu.LoopAdaptive, g, tl)
			fused, adaptive = append(fused, df.Seconds()), append(adaptive, da.Seconds())
		}
		set(fmt.Sprintf("emu.cell.%s.%s.adaptive_vs_fused", c.Program, c.Machine()), median(fused)/median(adaptive), "ratio")
	}
	return nil
}

// serveLayers replays the workload's requests through an in-process
// brserve: its HTTP handler directly (serve.handler_us, result- and
// compile-cache hit ratios), the same handler over loopback HTTP
// (serve.http_us), a short concurrent open loop (queue wait, coalescing,
// refusals, load.late_p99_ms), 32 passes over the short cells (guard's
// shadow sampling), the guard supervisor against the bare compile cache
// on the same requests, request fingerprinting and the result cache's Get
// and Put.
func serveLayers(ctx context.Context, tr *tracer, t *traffic, tl *tally, set func(string, float64, string)) error {
	dc := driver.NewCache()
	dc.SetResultCache(driver.NewResultCache(64 << 20))
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Cache: dc, Metrics: reg})
	defer func() { _ = srv.Drain(context.Background()) }()

	n := len(t.cells)
	seq := order(t.seed, streamTrace, n, 2*replayPasses*n)
	replay := len(seq) / 2
	// handle sends one request straight into the server's handler.
	handle := func(ci, i int) (outcome, time.Duration) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(t.body(ci, i)))
		req.Header.Set("Content-Type", "application/json")
		d := tr.timed("serve.handler", 0, i, func() { srv.ServeHTTP(rec, req) })
		o := t.check(ci, rec.Code, rec.Body.Bytes())
		tl.add(o)
		return o, d
	}
	for ci := 0; ci < n; ci++ {
		handle(ci, warmBase+ci)
	}
	rs0, cs0 := dc.ResultCache().Stats(), dc.Stats()
	var hdl []float64
	for i := 0; i < replay; i++ {
		_, d := handle(seq[i], i)
		hdl = append(hdl, us(d))
	}
	rs1, cs1 := dc.ResultCache().Stats(), dc.Stats()
	set("serve.handler_us", median(hdl), "us")
	set("driver.rescache.hit_ratio", ratio(int(rs1.Hits-rs0.Hits), int(rs1.Hits-rs0.Hits+rs1.Misses-rs0.Misses)), "ratio")
	set("driver.rescache.evictions", float64(rs1.Evictions), "count")
	set("driver.compile_cache.hit_ratio", ratio(int(cs1.Hits-cs0.Hits), int(cs1.Requests-cs0.Requests)), "ratio")

	// Loopback: the second half of the replay sequence, one request at a
	// time over one kept-alive connection.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := httpClient(1)
	defer hc.CloseIdleConnections()
	var loop []float64
	for i := replay; i < len(seq); i++ {
		var o outcome
		d := tr.timed("serve.loopback", 0, i, func() { o = t.send(ctx, hc, ts.URL, seq[i], i) })
		tl.add(o)
		loop = append(loop, us(d))
	}
	set("serve.http_us", median(loop)-median(hdl), "us")

	oc := httpClient(runtime.NumCPU())
	defer oc.CloseIdleConnections()
	open := t.openLoop(ctx, oc, ts.URL, runtime.NumCPU(), lateWindow, tl)
	late := make([]float64, len(open.late))
	for k, d := range open.late {
		late[k] = ms(d)
	}
	set("load.late_p99_ms", quantile(late, 0.99), "ms")
	var queued int64
	coalesced, rejected := 0, 0
	for k, q := range open.queueNS {
		queued += q
		if open.coal[k] {
			coalesced++
		}
		if c := open.code[k]; c == http.StatusTooManyRequests || c == http.StatusServiceUnavailable {
			rejected++
		}
	}
	set("serve.queue_ms", float64(queued)/float64(len(open.queueNS))/1e6, "ms")
	set("serve.coalesced_ratio", ratio(coalesced, len(open.code)), "ratio")
	set("serve.rejected", float64(rejected), "count")

	// Shadow sampling: brserve keys it on the request's class (a salted
	// source is a class of its own) and skips result-cache hits, so the
	// ratio is the workload's own. Short cells only, to keep the 32
	// passes brief.
	short := map[string]bool{}
	for _, c := range shortCells(t.g) {
		short[c.Key()] = true
	}
	sampled0 := reg.Snapshot().Counters["guard.shadow.sampled"]
	executed := 0
	for p := 0; p < shadowPasses; p++ {
		for ci, c := range t.cells {
			if !short[c.Key()] {
				continue
			}
			if o, _ := handle(ci, shadowBase+p*n+ci); o.err == nil && !o.cached && !o.coal {
				executed++
			}
		}
	}
	sampled := reg.Snapshot().Counters["guard.shadow.sampled"] - sampled0
	set("guard.shadow_ratio", ratio(int(sampled), executed), "ratio")

	return guardLayer(ctx, tr, t, seq[:replay], tl, set)
}

// guardLayer times guard.Supervisor.Exec against the compile cache's own
// Exec on the same requests (both on the adaptive tier the supervisor
// tries first), and times fingerprinting and the result cache.
func guardLayer(ctx context.Context, tr *tracer, t *traffic, seq []int, tl *tally, set func(string, float64, string)) error {
	reg := obs.NewRegistry()
	dc := driver.NewCache()
	dc.SetResultCache(driver.NewResultCache(64 << 20))
	sup := guard.New(guard.Config{
		Exec: func(ctx context.Context, _ string, req driver.Request) (*driver.Result, error) {
			return dc.Exec(ctx, req)
		},
		ShadowRate: 32,
		Metrics:    reg,
	})
	defer sup.Close()
	// Salted and no-cache traffic executes on both paths; memoized
	// traffic is answered from the result cache on both.
	noCache := t.w.unique || t.w.noCache
	o := driver.DefaultOptions()
	reqs := make([]driver.Request, len(seq))
	for i, ci := range seq {
		c := t.cells[ci]
		src, stdin := workloadSource(c.Program)
		if t.w.unique {
			src = saltSource(src, saltID(t.seed, traceBase+len(t.cells)+i))
		}
		reqs[i] = driver.Request{Source: src, Kind: c.Kind, Input: stdin, Options: o, NoCache: noCache}
		if _, err := dc.Compile(ctx, src, c.Kind, o); err != nil {
			return fmt.Errorf("%s: %w", c.Key(), err)
		}
		if !noCache {
			warm := reqs[i]
			warm.Loop = emu.LoopAdaptive
			if _, err := dc.Exec(ctx, warm); err != nil {
				return fmt.Errorf("%s: %w", c.Key(), err)
			}
		}
	}
	var supT, cacheT []float64
	results := make([]*driver.Result, len(reqs))
	for i, req := range reqs {
		key := t.cells[seq[i]].Key()
		direct := req
		direct.Loop = emu.LoopAdaptive
		var gr *guard.Result
		var res *driver.Result
		var errS, errC error
		runSup := func() {
			supT = append(supT, us(tr.timed("guard.supervisor", 0, i, func() { gr, errS = sup.Exec(ctx, key, req) })))
		}
		runCache := func() {
			cacheT = append(cacheT, us(tr.timed("guard.cache", 0, i, func() { res, errC = dc.Exec(ctx, direct) })))
		}
		if i%2 == 0 {
			runSup()
			runCache()
		} else {
			runCache()
			runSup()
		}
		for _, r := range []struct {
			res *driver.Result
			err error
		}{{res, errC}, {resultOf(gr), errS}} {
			err := r.err
			if err == nil {
				err = t.g.check(key, r.res.Output, r.res.Status, r.res.Stats.Instructions)
			}
			tl.add(outcome{err: err})
		}
		results[i] = res
	}
	set("guard.overhead_us", median(supT)-median(cacheT), "us")
	set("guard.fallbacks", float64(reg.Snapshot().Counters["guard.fallback.attempts"]), "count")

	fps := make([]string, len(reqs))
	d := tr.timed("driver.fingerprint", 0, -1, func() {
		for i := range reqs {
			fps[i] = reqs[i].Fingerprint()
		}
	})
	set("driver.fingerprint_us", us(d)/float64(len(reqs)), "us")
	rc := driver.NewResultCache(64 << 20)
	put := tr.timed("driver.rescache.put", 0, -1, func() {
		for i, fp := range fps {
			if results[i] != nil {
				rc.Put(fp, "bench", results[i])
			}
		}
	})
	get := tr.timed("driver.rescache.get", 0, -1, func() {
		for _, fp := range fps {
			rc.Get(fp)
		}
	})
	set("driver.rescache.put_us", us(put)/float64(len(fps)), "us")
	set("driver.rescache.get_us", us(get)/float64(len(fps)), "us")
	return nil
}

func resultOf(g *guard.Result) *driver.Result {
	if g == nil {
		return nil
	}
	return g.Result
}

// expLayer runs RunAll once per phase, each alone on a fresh Runner, and
// reports each phase's wall clock and the compile cache's hit ratio
// summed over the five runs.
func expLayer(ctx context.Context, tr *tracer, set func(string, float64, string)) error {
	phases := []struct {
		metric string
		spec   exp.AllSpec
	}{
		{"exp.suite_ms", exp.AllSpec{Suite: true}},
		{"exp.cache_study_ms", exp.AllSpec{CacheStudy: true}},
		{"exp.ablations_ms", exp.AllSpec{Ablations: true}},
		{"exp.validation_ms", exp.AllSpec{Validate: true}},
		{"exp.align_ms", exp.AllSpec{Align: true}},
	}
	var hits, reqs int64
	for _, ph := range phases {
		r := &exp.Runner{Parallelism: runtime.NumCPU()}
		var all *exp.AllResults
		var err error
		d := tr.timed(ph.metric, 0, -1, func() { all, err = r.RunAll(ctx, ph.spec) })
		if err != nil {
			return fmt.Errorf("%s: %w", ph.metric, err)
		}
		set(ph.metric, ms(d), "ms")
		hits += all.CompileCache.Hits
		reqs += all.CompileCache.Requests
	}
	set("exp.compile_cache.hit_ratio", ratio(int(hits), int(reqs)), "ratio")
	return nil
}
