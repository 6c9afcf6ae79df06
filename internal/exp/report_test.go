package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
)

// reportSpec is a scaled-down `brbench -all`: every phase, few workloads.
func reportSpec() AllSpec {
	return AllSpec{
		Suite:      true,
		CacheStudy: true,
		Ablations:  true,
		Validate:   true,
		Align:      true,
		Workloads:  []string{"wc", "grep", "sieve"},
	}
}

// TestReportRoundTrip runs every phase through one Runner and checks the
// acceptance criteria end to end: each (program, machine, config) is
// compiled at most once — visible as Misses == Entries plus a healthy hit
// count in the JSON — each study emulates a program at most once, and
// the emitted JSON round-trips losslessly.
func TestReportRoundTrip(t *testing.T) {
	spec := reportSpec()
	rec0, rep0, emu0 := mTraceRecorded.Value(), mTraceReplayed.Value(), mValidationEmulations.Value()
	r := Runner{}
	res, err := r.RunAll(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Shared emulations: each study emulates every distinct program
	// once. The cache study records its n BRM programs; the alignment
	// study, with its own memo, records them again plus n aligned
	// builds. Every cache-study and alignment job is one replay, and
	// validation's n workloads x 2 machines serve both depths.
	n := int64(len(spec.Workloads))
	if got, want := mTraceRecorded.Value()-rec0, 3*n; got != want {
		t.Errorf("fetch streams recorded = %d, want %d", got, want)
	}
	if got, want := mTraceReplayed.Value()-rep0, int64(len(DefaultCacheConfigs())*2)*n+2*n; got != want {
		t.Errorf("fetch streams replayed = %d, want %d", got, want)
	}
	if got, want := mValidationEmulations.Value()-emu0, 2*n; got != want {
		t.Errorf("validation emulations = %d, want %d", got, want)
	}
	rep := res.Report()
	if rep.Schema != ReportSchemaVersion {
		t.Errorf("schema = %d", rep.Schema)
	}

	// Compile-at-most-once: misses count compiler invocations, entries
	// distinct keys; a recompile would make misses exceed entries. The
	// suite, cache study, validation, and the ablations' full variant all
	// revisit the same programs, so hits must be plentiful.
	cc := rep.CompileCache
	if cc.Misses != cc.Entries {
		t.Errorf("compiled %d times for %d distinct keys: some key compiled twice", cc.Misses, cc.Entries)
	}
	if cc.Hits == 0 {
		t.Error("no cache hits across -all phases: sharing is broken")
	}
	if cc.Requests != cc.Hits+cc.Misses {
		t.Errorf("inconsistent counters: %+v", cc)
	}
	// 3 workloads x 2 machines (suite) + 3 x 8 non-default ablation
	// variants + 1 aligned config x 3 workloads = 33 distinct keys; the
	// cache study, validation, and the ablations' full variant are all
	// hits. An exact bound keeps the dedup honest.
	if want := int64(33); cc.Entries != want {
		t.Errorf("entries = %d, want %d distinct (source, machine, options) keys", cc.Entries, want)
	}

	// Phases must have been timed in order.
	if len(res.Phases) != 6 { // suite, cache, ablations, 2x validation, align
		t.Errorf("phases = %v", res.Phases)
	}

	b, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("JSON round trip is lossy")
	}
	if back.Suite == nil || len(back.Suite.Programs) != 3 {
		t.Fatalf("suite programs lost in round trip")
	}
	if back.Suite.Programs[0].Baseline.Instructions == 0 {
		t.Error("per-program stats lost in round trip")
	}
	if len(back.CacheStudy) != len(DefaultCacheConfigs())*2 {
		t.Errorf("cache study rows = %d", len(back.CacheStudy))
	}
	if len(back.Ablations) != 9 {
		t.Errorf("ablation rows = %d", len(back.Ablations))
	}
	if len(back.Validation) != 2 || len(back.Validation[0].Rows) != 6 {
		t.Errorf("validation shape: %+v", back.Validation)
	}
	if back.Alignment == nil || len(back.Alignment.Rows) != 2 {
		t.Errorf("alignment shape: %+v", back.Alignment)
	}
}

func TestDecodeReportRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"schema": 999}`)); err == nil {
		t.Fatal("future schema accepted")
	}
	if _, err := DecodeReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFloatJSON(t *testing.T) {
	cases := []float64{0, -6.8, 2.0, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, v := range cases {
		b, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Float
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		got := float64(back)
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Errorf("NaN round-tripped to %v", got)
			}
			continue
		}
		if got != v {
			t.Errorf("%v round-tripped to %v via %s", v, got, b)
		}
	}
	// A struct holding +Inf must marshal (plain float64 would fail).
	if _, err := json.Marshal(ProgramReport{InstDiffPct: Float(math.Inf(1))}); err != nil {
		t.Errorf("struct with +Inf: %v", err)
	}
}
