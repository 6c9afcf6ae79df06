package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"branchreg/internal/driver"
)

func testGolden(t *testing.T) *golden {
	t.Helper()
	g, err := loadGolden(".")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stream is everything one seed decides for a serve workload.
type stream struct {
	Closed, Open []int
	Arrivals     []float64
	Bodies       [][]byte
}

func streamFor(g *golden, w serveWorkload, seed uint64) stream {
	t := newTraffic(w, seed, g)
	s := stream{
		Closed:   order(seed, streamClosed, len(t.cells), 500),
		Open:     order(seed, streamOpen, len(t.cells), 500),
		Arrivals: arrivals(seed, w.rate, 3),
	}
	for i, ci := range s.Closed[:60] {
		s.Bodies = append(s.Bodies, t.body(ci, i))
	}
	return s
}

func TestSameSeedSameStream(t *testing.T) {
	g := testGolden(t)
	for name, w := range serveWorkloads {
		a, b := streamFor(g, w, 7), streamFor(g, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 produced two different streams", name)
		}
		if c := streamFor(g, w, 8); reflect.DeepEqual(a.Closed, c.Closed) || reflect.DeepEqual(a.Arrivals, c.Arrivals) {
			t.Errorf("%s: seeds 7 and 8 produced the same order or schedule", name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	// Every whole pass of the order covers each cell exactly once.
	seq := order(3, streamClosed, 38, 38*4)
	for p := 0; p < 4; p++ {
		seen := map[int]bool{}
		for _, ci := range seq[p*38 : (p+1)*38] {
			seen[ci] = true
		}
		if len(seen) != 38 {
			t.Fatalf("pass %d covers %d of 38 cells", p, len(seen))
		}
	}
	// The schedule holds exactly rate×window sorted times inside the window.
	at := arrivals(3, 40, 10)
	if len(at) != 400 {
		t.Fatalf("%d arrivals, want 400", len(at))
	}
	for i, x := range at {
		if x < 0 || x >= 10 || (i > 0 && x < at[i-1]) {
			t.Fatalf("arrival %d = %v out of order or outside [0,10)", i, x)
		}
	}
}

func TestSaltsDisjointAcrossSeeds(t *testing.T) {
	ranges := []int{0, openBase, warmBase, traceBase}
	seen := map[uint64]uint64{}
	for _, seed := range []uint64{0, 1, 2, 1<<32 - 1} {
		for _, base := range ranges {
			for i := 0; i < 2000; i++ {
				s := saltID(seed, base+i)
				if prev, dup := seen[s]; dup {
					t.Fatalf("salt %d drawn by seed %d and seed %d", s, prev, seed)
				}
				seen[s] = seed
			}
		}
	}
}

// TestSaltedCellsMatchGolden runs every salted serve-unique cell: salting
// must change neither output, status nor instruction count.
func TestSaltedCellsMatchGolden(t *testing.T) {
	g := testGolden(t)
	cells := shortCells(g)
	if len(cells) != 28 {
		t.Fatalf("serve-unique has %d cells, want 28 (14 programs under %d instructions)", len(cells), shortLimit)
	}
	for i, c := range cells {
		src, input := workloadSource(c.Program)
		src = saltSource(src, saltID(5, i))
		res, err := driver.Exec(context.Background(), driver.Request{Source: src, Kind: c.Kind, Input: input, Options: driver.DefaultOptions()})
		if err != nil {
			t.Fatalf("%s: %v", c.Key(), err)
		}
		if err := g.check(c.Key(), res.Output, res.Status, res.Stats.Instructions); err != nil {
			t.Error(err)
		}
	}
}

// TestGoldenCellsMatchTree keeps the committed golden data in step with
// the tree: every unsalted cell must still match it.
func TestGoldenCellsMatchTree(t *testing.T) {
	g := testGolden(t)
	if len(g.Cells) != 38 {
		t.Fatalf("golden data has %d cells, want 38", len(g.Cells))
	}
	for _, c := range allCells() {
		src, input := workloadSource(c.Program)
		res, err := driver.Exec(context.Background(), driver.Request{Source: src, Kind: c.Kind, Input: input, Options: driver.DefaultOptions()})
		if err != nil {
			t.Fatalf("%s: %v", c.Key(), err)
		}
		if err := g.check(c.Key(), res.Output, res.Status, res.Stats.Instructions); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// root [0,100]
	//   a [10,40]       b [30,60] (overlaps a)     c [90,120] (ends after root)
	//     a1 [15,20]
	//   open [50,-] (never ended: ignored)
	spans := []span{
		{ID: 1, Name: "root", Start: d(0), End: d(100)},
		{ID: 2, Parent: 1, Name: "a", Start: d(10), End: d(40)},
		{ID: 3, Parent: 1, Name: "b", Start: d(30), End: d(60)},
		{ID: 4, Parent: 1, Name: "c", Start: d(90), End: d(120)},
		{ID: 5, Parent: 2, Name: "a1", Start: d(15), End: d(20)},
		{ID: 6, Parent: 1, Name: "open", Start: d(50), End: -1},
	}
	want := map[int]time.Duration{1: d(40), 2: d(25), 3: d(30), 4: d(30), 5: d(5)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerChromeOutput(t *testing.T) {
	tr := newTracer()
	root := tr.begin("compile", 0, 3)
	tr.timed("mc.lex", root, 3, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	tr.begin("unfinished", 0, -1)
	self := tr.selfSince(0)
	if self["mc.lex"] < time.Millisecond || self["compile"] < 0 {
		t.Errorf("self times %v", self)
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("%d events, want the 2 finished spans", len(out.TraceEvents))
	}
	lex := out.TraceEvents[1]
	if lex.Name != "mc.lex" || lex.Ph != "X" || lex.Args["parent"] != 1 || lex.Args["req"] != 3 || lex.Dur < 1000 {
		t.Errorf("mc.lex event = %+v", lex)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("q25 = %v, want 2", q)
	}
	if q := quantile(xs, 0.99); q < 4.9 || q > 5 {
		t.Errorf("q99 = %v", q)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r record) string {
		b, _ := json.Marshal(r)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := host{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Commit: "abc"}
	res := result{Metrics: map[string]metric{"req_s": {100, "1/s"}}}
	a := write("a.json", record{Host: h, Workload: "serve-memo", Seconds: 10, Result: res})
	h2 := h
	h2.Commit = "def"
	res2 := result{Metrics: map[string]metric{"req_s": {110, "1/s"}}}
	b := write("b.json", record{Host: h2, Workload: "serve-memo", Seconds: 10, Result: res2,
		Extra: map[string]metric{"p50_ms": {2, "ms"}}})
	var out bytes.Buffer
	if err := compareRecords(&out, []string{a, b}); err != nil {
		t.Fatalf("same host: %v", err)
	}
	if !strings.Contains(out.String(), "+10.0%") || !strings.Contains(out.String(), "p50_ms") {
		t.Errorf("comparison output:\n%s", out.String())
	}
	h2.NProc = 4
	c := write("c.json", record{Host: h2, Workload: "serve-memo", Seconds: 10, Result: res2})
	if err := compareRecords(&out, []string{a, c}); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Errorf("different nproc: err = %v, want a refusal naming nproc", err)
	}
	// A record from a tree with uncommitted changes compares, and the
	// header says so.
	h2.NProc, h2.Dirty = 2, true
	d := write("d.json", record{Host: h2, Workload: "serve-memo", Seconds: 10, Result: res2})
	out.Reset()
	if err := compareRecords(&out, []string{a, d}); err != nil {
		t.Errorf("dirty record: %v", err)
	}
	if !strings.Contains(out.String(), "def (dirty)") {
		t.Errorf("header does not mark the dirty record:\n%s", out.String())
	}
}

// TestChecksCatchWrongResults feeds the response and report checks
// results that differ from the golden data.
func TestChecksCatchWrongResults(t *testing.T) {
	g := testGolden(t)
	tr := newTraffic(serveWorkloads["serve-memo"], 1, g)
	ci := 0
	key := tr.cells[ci].Key()
	want := g.Cells[key]
	src, input := workloadSource(tr.cells[ci].Program)
	res, err := driver.Exec(context.Background(), driver.Request{Source: src, Kind: tr.cells[ci].Kind, Input: input,
		Options: driver.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	body := func(output string, status int32, insts int64) []byte {
		b, _ := json.Marshal(map[string]any{"output": output, "status": status, "instructions": insts})
		return b
	}
	if o := tr.check(ci, 200, body(res.Output, want.Status, want.Instructions)); o.err != nil {
		t.Fatalf("correct response rejected: %v", o.err)
	}
	for name, b := range map[string][]byte{
		"output":       body(res.Output+"x", want.Status, want.Instructions),
		"status":       body(res.Output, want.Status+1, want.Instructions),
		"instructions": body(res.Output, want.Status, want.Instructions+1),
	} {
		if o := tr.check(ci, 200, b); o.err == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
	if o := tr.check(ci, 429, nil); o.err == nil {
		t.Error("a 429 refusal counted as a success")
	}

	var rep map[string]any
	if err := json.Unmarshal(g.harness, &rep); err != nil {
		t.Fatal(err)
	}
	suite := rep["suite"].(map[string]any)
	prog := suite["programs"].([]any)[3].(map[string]any)
	prog["baseline"].(map[string]any)["Instructions"] = 1.0
	changed, _ := json.Marshal(rep)
	wrong, other, err := reportDiff(changed, g.harness)
	if err != nil || other || len(wrong) != 1 || !wrong[prog["name"].(string)] {
		t.Errorf("one changed suite row: wrong=%v other=%v err=%v", wrong, other, err)
	}
	rep["compile_cache"].(map[string]any)["hits"] = 0.0
	changed, _ = json.Marshal(rep)
	if _, other, _ := reportDiff(changed, g.harness); !other {
		t.Error("a changed compile-cache section went unnoticed")
	}
}

func TestPassTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Passes of two requests: done at 20 ms and at 50 ms; the fifth
	// completion starts a pass that never completes.
	got := passTimes([]time.Duration{ms(10), ms(20), ms(30), ms(50), ms(60)}, 2)
	if want := []float64{0.02, 0.03}; !reflect.DeepEqual(got, want) {
		t.Errorf("passTimes = %v, want %v", got, want)
	}
}

func TestProcCPU(t *testing.T) {
	// utime 150 and stime 50 ticks: two seconds; the command name holds
	// spaces and a parenthesis.
	line := "4242 (br serve) x) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 4 0 100 1000 50\n"
	p := filepath.Join(t.TempDir(), "stat")
	if err := os.WriteFile(p, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := procCPU(p); err != nil || d != 2*time.Second {
		t.Errorf("procCPU = %v, %v; want 2s", d, err)
	}
	if _, err := procCPU("/proc/self/stat"); err != nil {
		t.Errorf("own stat: %v", err)
	}
}

func TestTaskCPU(t *testing.T) {
	before, err := taskCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
	}
	after, err := taskCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 10*time.Millisecond {
		t.Errorf("20ms of spinning counted as %v of CPU time", d)
	}
}

// TestStrippedJSON checks that a report read back from brbench's JSON
// strips to the same bytes as the in-process report it was written from.
func TestStrippedJSON(t *testing.T) {
	g := testGolden(t)
	got, err := strippedJSON(g.harness)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, g.harness) {
		t.Error("the golden report does not survive a JSON round trip")
	}
	cells, wrong, err := checkReport(got, g.harness)
	if err != nil || cells != 38 || wrong != 0 {
		t.Errorf("checkReport(golden) = %d cells, %d wrong, %v; want 38, 0", cells, wrong, err)
	}
	var rep map[string]any
	if err := json.Unmarshal(g.harness, &rep); err != nil {
		t.Fatal(err)
	}
	rep["suite"].(map[string]any)["programs"].([]any)[0].(map[string]any)["name"] = "renamed"
	changed, _ := json.Marshal(rep)
	if _, wrong, _ := checkReport(changed, g.harness); wrong != 2 {
		t.Errorf("one changed suite row: %d wrong cells, want 2", wrong)
	}
}
