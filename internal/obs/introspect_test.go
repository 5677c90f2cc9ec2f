package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Regression: a zero-valued observation must land in bucket 0 — a naive
// log2 bucketing (63 - leading zeros) underflows to -1 on zero and
// panics indexing the bucket array.
func TestHistogramZeroObservation(t *testing.T) {
	var h Histogram
	h.Observe(0)
	if h.Buckets[0] != 1 {
		t.Fatalf("Observe(0): bucket 0 = %d, want 1", h.Buckets[0])
	}
	if h.Count != 1 || h.Sum != 0 || h.Max != 0 {
		t.Fatalf("Observe(0): count=%d sum=%d max=%d", h.Count, h.Sum, h.Max)
	}
	// Negatives clamp to zero and join bucket 0 rather than underflow.
	h.Observe(-17)
	if h.Buckets[0] != 2 {
		t.Fatalf("Observe(-17): bucket 0 = %d, want 2", h.Buckets[0])
	}
	// The extremes of the int64 range stay in bounds: 2^62 has bit 62
	// set, so it lands in the last bucket (63).
	h.Observe(1 << 62)
	if h.Buckets[63] != 1 {
		t.Fatalf("Observe(1<<62): bucket 63 = %d, want 1", h.Buckets[63])
	}
}

func TestReadJSONLReportsLineNumber(t *testing.T) {
	trace := `{"t":1,"kind":"op-admitted","op":1}
{"t":2,"kind":"op-resumed","op":1}
{"t":3,"kind":"op-finished",BROKEN}
{"t":4,"kind":"op-admitted","op":2}
`
	events, err := ReadJSONL(strings.NewReader(trace))
	if err == nil {
		t.Fatal("want parse error for corrupted line")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events before the corruption, want 2", len(events))
	}

	// Unknown kinds also name their line.
	_, err = ReadJSONL(strings.NewReader("{\"t\":1,\"kind\":\"op-admitted\"}\n\n{\"t\":2,\"kind\":\"martian\"}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("unknown-kind error %v does not name line 3", err)
	}

	// So do kinds this build no longer has: a trace carrying the retired
	// shard flight-recorder records is refused at its first such line.
	_, err = ReadJSONL(strings.NewReader("{\"t\":1,\"kind\":\"op-admitted\"}\n{\"t\":0,\"kind\":\"shard-window\",\"txn\":1,\"dur\":1000000,\"depth\":3}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "shard-window") {
		t.Fatalf("retired-kind error %v does not name line 2 and the kind", err)
	}

	// Blank lines are skipped, not counted as events.
	events, err = ReadJSONL(strings.NewReader("\n{\"t\":1,\"kind\":\"op-admitted\"}\n\n"))
	if err != nil || len(events) != 1 {
		t.Fatalf("blank-line handling: events=%d err=%v", len(events), err)
	}
}

// SyncMetrics must tolerate concurrent emitters and snapshotters — the
// exact situation of a parallel sweep feeding the -http live registry
// while HTTP requests read it. Run under -race, this is the data-race
// acceptance check.
func TestSyncMetricsConcurrent(t *testing.T) {
	sm := NewSyncMetrics()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, e := range sampleStream() {
					e.Channel = w
					sm.Event(e)
				}
				if i%100 == 0 {
					_ = sm.Snapshot()
				}
			}
		}(w)
	}
	// Snapshot continuously while emitters run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = sm.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	s := sm.Snapshot()
	want := uint64(workers * perWorker * len(sampleStream()))
	if s.Events != want {
		t.Fatalf("Events = %d, want %d", s.Events, want)
	}
	if len(s.Channels) != workers {
		t.Fatalf("channels = %d, want %d", len(s.Channels), workers)
	}
}

func TestMetricsHandler(t *testing.T) {
	sm := NewSyncMetrics()
	for _, e := range sampleStream() {
		sm.Event(e)
	}
	h := MetricsHandler(sm.Snapshot)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, rec.Body.Bytes())
	}
	s := sm.Snapshot()
	if ev, ok := got["events"].(float64); !ok || uint64(ev) != s.Events {
		t.Fatalf("events = %v, want %d", got["events"], s.Events)
	}
	if _, ok := got["charges"].(map[string]any)["admit"]; !ok {
		t.Fatalf("charges missing admit site: %v", got["charges"])
	}
	if _, ok := got["chips"].([]any); !ok {
		t.Fatalf("chips did not marshal as array: %v", got["chips"])
	}
	// The handler must serve while the registry is being written — the
	// -race acceptance path for live introspection during a sweep.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, e := range sampleStream() {
				sm.Event(e)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d mid-write", rec.Code)
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte("software_time_ps")) {
			t.Fatal("snapshot body missing software_time_ps")
		}
	}
	wg.Wait()
}
