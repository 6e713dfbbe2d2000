package debughttp

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sharebackup/internal/obs"
)

// testServer mounts the debug handler on an httptest server over a private
// bus and registry, pre-populated with one counter, one gauge, one histogram
// and three bus events.
func testServer(t *testing.T) (*httptest.Server, *obs.Registry, *obs.Bus) {
	t.Helper()
	reg := obs.NewRegistry()
	bus := &obs.Bus{}
	reg.Counter("controller.failovers").Add(7)
	reg.Gauge("fluid.active_flows").Set(3)
	h := reg.Histogram("fluid.fct_us")
	for v := int64(1); v <= 100; v++ {
		h.Record(v * 10)
	}
	s := newServer(Config{Registry: reg, Bus: bus})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	for i := 0; i < 3; i++ {
		ev := obs.NewEvent(obs.KindFailureDeclared, time.Duration(i)*time.Millisecond)
		ev.Switch = int32(i)
		bus.Emit(ev)
	}
	return ts, reg, bus
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestIndexAndHealthz(t *testing.T) {
	ts, _, _ := testServer(t)
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "/varz") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
	// The embedded time-series store is gone: the index does not advertise
	// its route, and the route is an unknown path.
	if strings.Contains(body, "timeseriesz") {
		t.Fatalf("index still lists /timeseriesz:\n%s", body)
	}
	if code, _ := get(t, ts.URL+"/timeseriesz"); code != http.StatusNotFound {
		t.Fatalf("/timeseriesz: code=%d, want 404", code)
	}
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: code=%d body=%q", code, body)
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
}

func TestIndexMentionsNewEndpoints(t *testing.T) {
	ts, _, _ := testServer(t)
	_, body := get(t, ts.URL+"/")
	if !strings.Contains(body, "/metricsz") {
		t.Errorf("index missing /metricsz:\n%s", body)
	}
}

func TestVarzJSON(t *testing.T) {
	ts, _, _ := testServer(t)
	code, body := get(t, ts.URL+"/varz")
	if code != http.StatusOK {
		t.Fatalf("varz: code=%d", code)
	}
	var ex obs.Export
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatalf("varz: not JSON: %v\n%s", err, body)
	}
	if ex.Counters["controller.failovers"] != 7 {
		t.Fatalf("varz counter = %d, want 7", ex.Counters["controller.failovers"])
	}
	if ex.Gauges["fluid.active_flows"] != 3 {
		t.Fatalf("varz gauge = %d, want 3", ex.Gauges["fluid.active_flows"])
	}
	h, ok := ex.Histograms["fluid.fct_us"]
	if !ok {
		t.Fatalf("varz: no fluid.fct_us histogram\n%s", body)
	}
	if h.Count != 100 || h.Min != 10 || h.Max != 1000 {
		t.Fatalf("histogram summary = %+v", h)
	}
	// Samples are 10..1000; p50 ≈ 500 within the 1/16 bucket error.
	if h.P50 < 450 || h.P50 > 550 {
		t.Fatalf("p50 = %d, want ≈500", h.P50)
	}
	if h.P99 < 900 || h.P99 > 1000 {
		t.Fatalf("p99 = %d, want ≈990", h.P99)
	}
	if len(h.Buckets) != 0 {
		t.Fatalf("buckets included without ?buckets=1: %d", len(h.Buckets))
	}

	_, body = get(t, ts.URL+"/varz?buckets=1")
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.Histograms["fluid.fct_us"].Buckets) == 0 {
		t.Fatal("?buckets=1 did not include bucket detail")
	}
}

func TestEventsReplayJSONL(t *testing.T) {
	ts, _, _ := testServer(t)
	code, body := get(t, ts.URL+"/events?replay=1&n=3")
	if code != http.StatusOK {
		t.Fatalf("events: code=%d", code)
	}
	evs, err := obs.ReadJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("events: bad JSONL: %v\n%s", err, body)
	}
	if len(evs) != 3 {
		t.Fatalf("events: got %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Kind != obs.KindFailureDeclared || ev.Switch != int32(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestEventsLiveStream(t *testing.T) {
	ts, _, bus := testServer(t)
	resp, err := http.Get(ts.URL + "/events?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The client sink attaches only once the handler runs; keep emitting
	// until both events come back.
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
				ev := obs.NewEvent(obs.KindBackupAssigned, time.Duration(i))
				bus.Emit(ev)
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	var got []obs.Event
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("live stream line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	done <- struct{}{}
	if len(got) != 2 {
		t.Fatalf("live stream: got %d events, want 2", len(got))
	}
	for _, ev := range got {
		if ev.Kind != obs.KindBackupAssigned {
			t.Fatalf("live stream event kind = %v", ev.Kind)
		}
	}
}

func TestEventsBadN(t *testing.T) {
	ts, _, _ := testServer(t)
	if code, _ := get(t, ts.URL+"/events?n=x"); code != http.StatusBadRequest {
		t.Fatalf("bad n: code=%d, want 400", code)
	}
}

func TestPprofIndex(t *testing.T) {
	ts, _, _ := testServer(t)
	code, body := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code=%d", code)
	}
}

func TestStartAndClose(t *testing.T) {
	reg := obs.NewRegistry()
	bus := &obs.Bus{}
	s, err := Start("127.0.0.1:0", Config{Registry: reg, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz over real listener: code=%d body=%q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestRingDropsSurfaceInVarz pins the satellite: overflowing the backlog
// ring shows up as obs.ring_dropped_events on /varz.
func TestRingDropsSurfaceInVarz(t *testing.T) {
	reg := obs.NewRegistry()
	bus := &obs.Bus{}
	s := newServer(Config{Registry: reg, Bus: bus})
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	for i := 0; i < backlog+6; i++ {
		bus.Emit(obs.NewEvent(obs.KindLog, time.Duration(i)))
	}
	_, body := get(t, ts.URL+"/varz")
	var ex obs.Export
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	if got := ex.Counters["obs.ring_dropped_events"]; got != 6 {
		t.Fatalf("ring_dropped_events = %d, want 6", got)
	}
}
