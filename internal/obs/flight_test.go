package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestFlightRecorderRetentionReasons(t *testing.T) {
	f := NewFlightRecorder(8, 1000, 0) // slow ≥ 1µs, sampling off
	cases := []struct {
		rec  RequestRecord
		want []string
	}{
		{RequestRecord{ID: "ok", Status: 200, Phases: map[string]int64{"total_ns": 10}}, nil},
		{RequestRecord{ID: "err", Status: 500}, []string{"error"}},
		{RequestRecord{ID: "timeout", Status: 408}, []string{"error"}},
		{RequestRecord{ID: "fb", Status: 200, FallbackFrom: []string{"fused"}}, []string{"fallback"}},
		{RequestRecord{ID: "rr", Status: 200, Rerouted: true}, []string{"fallback"}},
		{RequestRecord{ID: "slow", Status: 200, Phases: map[string]int64{"total_ns": 5000}}, []string{"slow"}},
		{RequestRecord{ID: "422", Status: 422, Phases: map[string]int64{"total_ns": 10}}, nil},
	}
	for _, c := range cases {
		kept := f.Offer(c.rec)
		if kept != (len(c.want) > 0) {
			t.Errorf("Offer(%s): kept=%v, want %v", c.rec.ID, kept, len(c.want) > 0)
			continue
		}
		if !kept {
			continue
		}
		got, ok := f.Get(c.rec.ID)
		if !ok {
			t.Errorf("Get(%s): not found after retention", c.rec.ID)
			continue
		}
		if fmt.Sprint(got.Reasons) != fmt.Sprint(c.want) {
			t.Errorf("Get(%s).Reasons = %v, want %v", c.rec.ID, got.Reasons, c.want)
		}
	}
}

func TestFlightRecorderSampling(t *testing.T) {
	f := NewFlightRecorder(64, 0, 4) // every 4th offered request retained
	for i := 1; i <= 16; i++ {
		f.Offer(RequestRecord{ID: fmt.Sprintf("r%d", i), Status: 200})
	}
	recs, retained, offered := f.Snapshot()
	if offered != 16 || retained != 4 || len(recs) != 4 {
		t.Fatalf("sampling: offered=%d retained=%d len=%d, want 16/4/4", offered, retained, len(recs))
	}
	// Newest first: offers 16, 12, 8, 4 are the sampled ones.
	for i, want := range []string{"r16", "r12", "r8", "r4"} {
		if recs[i].ID != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, recs[i].ID, want)
		}
	}
}

func TestFlightRecorderEviction(t *testing.T) {
	f := NewFlightRecorder(4, 0, 1) // retain everything, tiny ring
	for i := 1; i <= 10; i++ {
		f.Offer(RequestRecord{ID: fmt.Sprintf("r%d", i), Status: 200})
	}
	recs, retained, offered := f.Snapshot()
	if retained != 10 || offered != 10 {
		t.Fatalf("retained=%d offered=%d, want 10/10", retained, offered)
	}
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, want := range []string{"r10", "r9", "r8", "r7"} {
		if recs[i].ID != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, recs[i].ID, want)
		}
	}
	if _, ok := f.Get("r3"); ok {
		t.Errorf("evicted record r3 still retrievable")
	}
	if _, ok := f.Get("r9"); !ok {
		t.Errorf("retained record r9 not retrievable")
	}
}

func TestFlightRecorderDuplicateIDNewestWins(t *testing.T) {
	f := NewFlightRecorder(8, 0, 1)
	f.Offer(RequestRecord{ID: "dup", Status: 200, Engine: "old"})
	f.Offer(RequestRecord{ID: "dup", Status: 200, Engine: "new"})
	got, ok := f.Get("dup")
	if !ok || got.Engine != "new" {
		t.Fatalf("Get(dup) = %+v ok=%v, want newest (engine new)", got, ok)
	}
}

// TestFlightRecorderConcurrent exercises the ring under concurrent
// writers and readers; run with -race it proves the locking discipline.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32, 0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Offer(RequestRecord{
					ID:     fmt.Sprintf("g%d-%d", g, i),
					Status: 200,
					Spans:  []SpanRecord{{ID: 1, Name: "request"}},
				})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				recs, _, _ := f.Snapshot()
				if len(recs) > 32 {
					t.Errorf("snapshot exceeded ring cap: %d", len(recs))
					return
				}
				f.Get("g0-50")
			}
		}()
	}
	wg.Wait()
	recs, retained, offered := f.Snapshot()
	if offered != 1600 || retained != 1600 {
		t.Fatalf("offered=%d retained=%d, want 1600/1600", offered, retained)
	}
	if len(recs) != 32 {
		t.Fatalf("final ring size %d, want 32", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate record %s in snapshot", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	if f.Offer(RequestRecord{ID: "x", Status: 500}) {
		t.Errorf("nil recorder retained a record")
	}
	if recs, retained, offered := f.Snapshot(); recs != nil || retained != 0 || offered != 0 {
		t.Errorf("nil recorder snapshot = %v/%d/%d", recs, retained, offered)
	}
	if _, ok := f.Get("x"); ok {
		t.Errorf("nil recorder Get found a record")
	}
}
