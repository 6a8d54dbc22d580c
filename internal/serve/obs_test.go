package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// driveTraced stands up a mixed fleet (one unsharded replica, one 2-rank
// sharded group), records a flight-recorder window while serving traffic,
// and returns the captured events.
func driveTraced(t *testing.T, requests int) (*Server, []obs.Event) {
	t.Helper()
	s, _ := newTestServer(t, Config{
		Groups:        []int{1, 2},
		MaxBatch:      4,
		BatchDeadline: 200 * time.Microsecond,
	})
	obs.Enable()
	defer obs.Disable()
	in := randInput(s.InputLen(), 11)
	out := make([]float32, s.OutputLen())
	for i := 0; i < requests; i++ {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}
	obs.Disable()
	return s, obs.Snapshot()
}

// The tentpole acceptance test: a single request (one batch seq) leaves
// correlated spans in all three layers — serve lifecycle on the front-end
// track, wire/compute on a replica leader's track, and kernel/layer phases
// on the replica ranks — spanning at least two ranks.
func TestTraceEndToEndAcrossLayers(t *testing.T) {
	_, events := driveTraced(t, 60)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}

	// Index spans by stage and by correlation id.
	byStage := map[obs.Stage][]obs.Event{}
	for _, e := range events {
		byStage[e.Stage] = append(byStage[e.Stage], e)
	}
	for _, st := range []obs.Stage{obs.StageAdmission, obs.StageBatch, obs.StageRoute} {
		if len(byStage[st]) == 0 {
			t.Fatalf("no %v spans on the front-end track", st)
		}
		for _, e := range byStage[st] {
			if e.Track != 0 {
				t.Fatalf("%v span on track %d, want 0", st, e.Track)
			}
		}
	}

	// Pick a seq that has a compute span and follow it end to end.
	if len(byStage[obs.StageCompute]) == 0 {
		t.Fatal("no compute spans on replica tracks")
	}
	for _, st := range []obs.Stage{obs.StageWire, obs.StageCompute} {
		for _, e := range byStage[st] {
			if e.Track == 0 {
				t.Fatalf("%v span on the front-end track, want a replica track", st)
			}
		}
	}
	checked := 0
	for _, ce := range byStage[obs.StageCompute] {
		seq := ce.ID
		tracks := map[int]bool{}
		var haveBatch, haveWire, haveKernel bool
		for _, e := range events {
			if e.ID != seq {
				continue
			}
			tracks[e.Track] = true
			switch e.Stage {
			case obs.StageBatch:
				haveBatch = true
			case obs.StageWire:
				haveWire = true
			case obs.StageLayerConv, obs.StageLayerBN, obs.StageLayerOther,
				obs.StageGemmKernel, obs.StageUnshuffle:
				haveKernel = true
			}
		}
		if !haveBatch || !haveWire || !haveKernel {
			continue
		}
		if len(tracks) < 2 {
			t.Fatalf("seq %d traced on %d track(s), want >= 2", seq, len(tracks))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no seq had batch+wire+kernel spans; cross-layer correlation is broken")
	}

	// The sharded group's broadcasts must appear as collective-class comm
	// spans on its ranks.
	coll := 0
	for _, e := range events {
		if e.Class == obs.ClassColl {
			coll++
		}
	}
	if coll == 0 {
		t.Fatal("no collective-class comm spans from the sharded replica group")
	}
}

// The captured window must round-trip through the Chrome trace exporter
// into JSON that a trace viewer would accept, with events on >= 2 ranks.
func TestTraceChromeExport(t *testing.T) {
	_, events := driveTraced(t, 40)
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	tids := map[int]bool{}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
			tids[e.TID] = true
		}
	}
	if spans == 0 {
		t.Fatal("no complete-event spans in exported trace")
	}
	if len(tids) < 2 {
		t.Fatalf("spans on %d rank track(s), want >= 2", len(tids))
	}
}

// Stage decomposition histograms are always on: after traffic, every stage
// has counts and /statz-style quantiles.
func TestStageDecompositionCounts(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4, BatchDeadline: 200 * time.Microsecond})
	in := randInput(s.InputLen(), 3)
	out := make([]float32, s.OutputLen())
	for i := 0; i < 30; i++ {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.Stages) != int(nStages) {
		t.Fatalf("%d stages in snapshot, want %d", len(st.Stages), nStages)
	}
	for _, sg := range st.Stages {
		if sg.Count == 0 {
			t.Errorf("stage %s: zero samples after traffic", sg.Name)
		}
	}
	if st.Stages[stgQueueWait].Count != 30 {
		t.Errorf("queue_wait count = %d, want one per request (30)", st.Stages[stgQueueWait].Count)
	}
	if st.Goroutines <= 0 {
		t.Errorf("goroutine gauge = %d, want > 0", st.Goroutines)
	}
}

// /metrics must expose every /statz counter plus the histogram series.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4, BatchDeadline: 200 * time.Microsecond})
	in := randInput(s.InputLen(), 5)
	out := make([]float32, s.OutputLen())
	for i := 0; i < 20; i++ {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"serve_requests_total 20",
		"serve_batches_total",
		"serve_samples_total 20",
		"serve_shed_full_total",
		"serve_shed_expired_total",
		"serve_retries_total",
		"serve_failovers_total",
		"serve_quarantined_total",
		"serve_rejoins_total",
		"serve_dropped_results_total",
		"serve_request_latency_seconds_bucket",
		`serve_request_latency_seconds_bucket{le="+Inf"} 20`,
		`serve_stage_latency_seconds_bucket{stage="queue_wait"`,
		`serve_stage_latency_seconds_bucket{stage="compute"`,
		"serve_batch_occupancy_bucket",
		"serve_replicas_live",
		"go_goroutines",
		"go_gc_pause_seconds_total",
		"go_heap_inuse_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// /tracez returns parseable Chrome trace JSON for a short window.
func TestTracezEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{Groups: []int{1, 2}, MaxBatch: 4, BatchDeadline: 200 * time.Microsecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		in := randInput(s.InputLen(), 7)
		out := make([]float32, s.OutputLen())
		for i := 0; i < 80; i++ {
			if s.Predict(in, out) != nil {
				return
			}
		}
	}()
	resp, err := http.Get(ts.URL + "/tracez?dur=150ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	<-done
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez status %d", resp.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/tracez body is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("/tracez JSON has no traceEvents key")
	}
}

// With tracing enabled, the warm Predict path must still not allocate: the
// recorder writes into preallocated rings with atomic stores only.
func TestPredictZeroAllocsTracingOn(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items; allocation counts are not meaningful")
	}
	s, _ := newTestServer(t, Config{MaxBatch: 8, BatchDeadline: Greedy})
	in := randInput(s.InputLen(), 5)
	out := make([]float32, s.OutputLen())
	for i := 0; i < 200; i++ {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}
	obs.Enable()
	defer obs.Disable()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Predict(in, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per Predict with tracing enabled, want 0", allocs)
	}
}
