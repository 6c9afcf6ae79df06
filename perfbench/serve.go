package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"branchreg/internal/serve"
)

// serveWorkload is one brserve traffic regime. All three send the source
// in the request body; they differ only in whether the source repeats and
// whether the result cache may answer.
type serveWorkload struct {
	name string
	// unique salts every request's source (serve-unique): compile and
	// result caches always miss.
	unique bool
	// noCache sets no_cache on every request (serve-rerun): the result
	// cache is bypassed, so every request queues and executes.
	noCache bool
	// rate is the open loop's fixed offered load in requests per second,
	// about a quarter of the closed-loop capacity on the recorded host.
	// At half, each single-worker admission shard is busy about half the
	// time, so the median request sits between those that wait behind a
	// long program and those that do not, and flips from run to run.
	rate float64
	// limit is the latency limit goodput counts against.
	limit time.Duration
}

var serveWorkloads = map[string]serveWorkload{
	"serve-unique": {name: "serve-unique", unique: true, rate: 67, limit: 250 * time.Millisecond},
	"serve-memo":   {name: "serve-memo", rate: 1400, limit: 20 * time.Millisecond},
	"serve-rerun":  {name: "serve-rerun", noCache: true, rate: 20, limit: 500 * time.Millisecond},
}

// setupBoots is how many servers a run boots and warms one after the
// other; the median of their CPU time over boot and warm-up is setup_s.
// All but the last then run an equal share of the closed loop, and the
// last runs the open loop. A server's cost per request varies by a tenth
// with its own heap and scheduling history, so the closed loop is spread
// over several servers rather than run on one.
const setupBoots = 7

// closedShare is the part of a run's measuring time spent in the closed
// loop; the open loop gets the rest.
const closedShare = 0.4

// traffic generates one serve workload's requests and checks each
// response against the golden data.
type traffic struct {
	w      serveWorkload
	seed   uint64
	cells  []cell
	bodies [][]byte // per cell, for workloads whose source does not vary
	g      *golden
}

func newTraffic(w serveWorkload, seed uint64, g *golden) *traffic {
	t := &traffic{w: w, seed: seed, g: g, cells: allCells()}
	if w.unique {
		t.cells = shortCells(g)
		return t
	}
	for i := range t.cells {
		t.bodies = append(t.bodies, t.encode(i, 0))
	}
	return t
}

func (t *traffic) encode(ci int, salt uint64) []byte {
	c := t.cells[ci]
	src, input := workloadSource(c.Program)
	if t.w.unique {
		src = saltSource(src, salt)
	}
	b, err := json.Marshal(serve.RunRequest{Source: src, Machine: c.Machine(), Input: &input, NoCache: t.w.noCache})
	if err != nil {
		panic(err) // a RunRequest of strings and bools always encodes
	}
	return b
}

// body returns request i's body for cell ci.
func (t *traffic) body(ci, i int) []byte {
	if t.w.unique {
		return t.encode(ci, saltID(t.seed, i))
	}
	return t.bodies[ci]
}

// outcome is one response, checked.
type outcome struct {
	err     error // transport failure, refusal, error status or wrong output
	code    int   // HTTP status; 0 for a transport failure
	queueNS int64
	coal    bool
	cached  bool
}

// send posts one request and checks the response against the golden data.
func (t *traffic) send(ctx context.Context, hc *http.Client, url string, ci, i int) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/run", bytes.NewReader(t.body(ci, i)))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{err: err}
	}
	return t.check(ci, resp.StatusCode, b)
}

func (t *traffic) check(ci, code int, b []byte) outcome {
	if code != http.StatusOK {
		return outcome{code: code, err: fmt.Errorf("%s: HTTP %d: %.200s", t.cells[ci].Key(), code, b)}
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		return outcome{code: code, err: fmt.Errorf("%s: %w", t.cells[ci].Key(), err)}
	}
	o := outcome{code: code, coal: rr.Coalesced, cached: rr.Cached}
	if rr.Timing != nil {
		o.queueNS = rr.Timing.QueueNS
	}
	o.err = t.g.check(t.cells[ci].Key(), rr.Output, rr.Status, rr.Instructions)
	return o
}

// httpClient keeps at most conns connections to the server.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// server is one brserve process built from the tree under test.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startServer launches brserve with default flags on a free loopback
// port and waits until /healthz answers.
func startServer(ctx context.Context, bin string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start brserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("brserve exited during start-up: %v", err)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("brserve did not answer /healthz within 30s")
		}
	}
}

// cpuTime returns the CPU time the server has used so far.
func (s *server) cpuTime() (time.Duration, error) {
	return procCPU(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
}

// taskCPU returns the CPU time a process's live threads have run, to the
// nanosecond: the sum of each thread's /proc schedstat run time. Go
// programs keep their threads, so over a process's start-up this is all
// the CPU time it used. /proc's stat counts in 10 ms ticks, too coarse for
// a set-up of a few tenths of a second.
func taskCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after the directory was read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procCPU reads user plus system CPU time, summed over all threads, from
// a /proc stat file. Time the hypervisor steals from a virtual CPU is
// accounted apart, so this is the steadiest measure of cost on a shared
// host.
func procCPU(path string) (time.Duration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// utime and stime are the 12th and 13th, in USER_HZ (100 on Linux).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short stat line", path)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

// peakRSSMB reads the server's peak resident set size.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop sends SIGTERM (brserve drains and exits), kills the process if it
// has not exited within ten seconds, and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// vmHWM returns a /proc status file's VmHWM (peak RSS) in MiB.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// tally counts checked responses.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if o.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = o.err
		}
	}
}

// warm sends one pass over the workload's cells, nproc at a time. Warm-up
// requests take salts from their own range so they never collide with
// timed ones.
func (t *traffic) warm(ctx context.Context, hc *http.Client, url string, conns int, tl *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1) - 1)
				if ci >= len(t.cells) {
					return
				}
				tl.add(t.send(ctx, hc, url, ci, warmBase+ci))
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one completes, for d and then to the end of the pass
// under way, so every loop sends whole passes of the matrix and the mix
// of cells does not depend on where the time ran out. Requests follow seq
// from index first on, which must start a pass. It returns the
// completion times (since start) of every request, in completion order,
// and the index the next loop starts at.
func (t *traffic) closedLoop(ctx context.Context, hc *http.Client, url string, conns int, seq []int, first int, d time.Duration, tl *tally) ([]time.Duration, int) {
	n := len(t.cells)
	var mu sync.Mutex
	next, limit := first, -1
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil {
			return 0, false
		}
		if limit < 0 && time.Since(start) >= d {
			limit = (next + n - 1) / n * n
		}
		if limit >= 0 && next >= limit {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var done []time.Duration
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				o := t.send(ctx, hc, url, seq[i%len(seq)], i)
				at := time.Since(start)
				tl.add(o)
				mu.Lock()
				done = append(done, at)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return done, next
}

// passTimes returns the time each whole pass of n requests took to
// complete in a closed loop with the given completion times.
func passTimes(done []time.Duration, n int) []float64 {
	var passes []float64
	prev := time.Duration(0)
	for k := n - 1; k < len(done); k += n {
		passes = append(passes, (done[k] - prev).Seconds())
		prev = done[k]
	}
	return passes
}

// openResult is the open loop's per-request record.
type openResult struct {
	latency []time.Duration // from when each request was due to its response
	late    []time.Duration // how late the generator released each request
	ok      []bool
	queueNS []int64
	code    []int
	coal    []bool
	elapsed time.Duration // from the loop's start to its last response
}

// openLoop releases requests on the seeded Poisson schedule whatever the
// server's state, over at most conns connections, and times each from
// when it was due.
func (t *traffic) openLoop(ctx context.Context, hc *http.Client, url string, conns int, window time.Duration, tl *tally) openResult {
	sched := arrivals(t.seed, t.w.rate, window.Seconds())
	seq := order(t.seed, streamOpen, len(t.cells), len(sched))
	n := len(sched)
	r := openResult{latency: make([]time.Duration, n), late: make([]time.Duration, n), ok: make([]bool, n), queueNS: make([]int64, n),
		code: make([]int, n), coal: make([]bool, n)}
	due := make([]time.Time, n)
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection: lateness measures the generator alone.
	ch := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				o := t.send(ctx, hc, url, seq[k], openBase+k)
				r.latency[k] = time.Since(due[k])
				r.ok[k] = o.err == nil
				r.queueNS[k] = o.queueNS
				r.code[k] = o.code
				r.coal[k] = o.coal
				tl.add(o)
			}
		}()
	}
	for k, at := range sched {
		if ctx.Err() != nil {
			break
		}
		due[k] = start.Add(time.Duration(at * float64(time.Second)))
		if w := time.Until(due[k]); w > 0 {
			time.Sleep(w)
		}
		r.late[k] = time.Since(due[k])
		ch <- k
	}
	close(ch)
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// runServe measures one serve workload end to end.
func runServe(ctx context.Context, env *env, w serveWorkload) (result, error) {
	conns := runtime.NumCPU()
	t := newTraffic(w, env.seed, env.golden)
	var tl tally

	measure := time.Duration(env.seconds) * time.Second
	closedDur := time.Duration(float64(measure) * closedShare)
	seq := order(t.seed, streamClosed, len(t.cells), 1<<20)
	slice := closedDur / (setupBoots - 1)
	var setups, setupWalls, rates, passes []float64
	var open openResult
	var rss float64
	var cpu time.Duration
	served, next := 0, 0
	for b := 0; b < setupBoots; b++ {
		start := time.Now()
		srv, err := startServer(ctx, env.brserve)
		if err != nil {
			return result{}, err
		}
		// A client per server, so no connection state carries over to a
		// later server that happens to reuse the port.
		hc := httpClient(conns)
		t.warm(ctx, hc, srv.url, conns, &tl)
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		var setupCPU time.Duration
		if setupCPU, err = taskCPU(srv.cmd.Process.Pid); err == nil {
			setups = append(setups, setupCPU.Seconds())
		}
		switch {
		case err != nil:
		case b < setupBoots-1:
			var before, after time.Duration
			var done []time.Duration
			before, err = srv.cpuTime()
			done, next = t.closedLoop(ctx, hc, srv.url, conns, seq, next, slice, &tl)
			if err == nil {
				after, err = srv.cpuTime()
				cpu += after - before
			}
			if len(done) > 0 {
				served += len(done)
				rates = append(rates, float64(len(done))/done[len(done)-1].Seconds())
				passes = append(passes, passTimes(done, len(t.cells))...)
			}
		default:
			// The open loop's fixed request count makes this server's
			// peak RSS comparable between builds of different speed.
			open = t.openLoop(ctx, hc, srv.url, conns, measure-closedDur, &tl)
			rss, err = srv.peakRSSMB()
		}
		hc.CloseIdleConnections()
		srv.stop()
		if err != nil {
			return result{}, err
		}
	}
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	if served == 0 {
		return result{}, errors.New("closed loop completed no requests")
	}

	lat := make([]float64, len(open.latency))
	good := 0
	for k, d := range open.latency {
		lat[k] = ms(d)
		if open.ok[k] && d <= w.limit {
			good++
		}
	}
	late := make([]float64, len(open.late))
	for k, d := range open.late {
		late[k] = ms(d)
	}
	if tl.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d responses failed; first: %v\n", tl.failed, tl.attempted, tl.firstErr)
	}
	res := newResult(tl.attempted, tl.failed)
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("cpu_ms", ms(cpu)/float64(served), "ms", served)
	res.set("peak_rss_mb", rss, "MiB", 1)
	res.note("setup_wall_s", median(setupWalls), "s", len(setupWalls))
	res.note("goodput_rps", float64(good)/open.elapsed.Seconds(), "1/s", len(lat))
	res.note("wall_s", median(passes), "s", len(passes))
	res.note("req_s", median(rates), "1/s", len(rates))
	res.note("p50_ms", quantile(lat, 0.5), "ms", len(lat))
	res.note("p99_ms", quantile(lat, 0.99), "ms", len(lat))
	res.note("fail_rate", ratio(tl.failed, tl.attempted), "ratio", tl.attempted)
	res.note("load.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	fmt.Fprintf(os.Stderr, "perfbench: %s: closed loop %d requests on %d servers, open loop %d at %.0f/s\n", w.name, served, len(rates), len(lat), w.rate)
	return res, nil
}
