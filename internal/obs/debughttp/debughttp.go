// Package debughttp is the live half of the observability pipeline: an
// opt-in HTTP introspection server that exposes the process' runtime state
// while a simulation or control plane is running. Endpoints:
//
//	/            index of everything below
//	/healthz     liveness probe ("ok")
//	/varz        JSON snapshot of an obs.Registry — counters, gauges, and
//	             histogram quantiles; ?buckets=1 adds bucket detail
//	/metricsz    the same registry in Prometheus text exposition format
//	             (counters, gauges, histograms-as-summaries)
//	/events      the live event bus as JSONL; ?replay=1 first replays the
//	             buffered backlog; ?n=N closes after N events
//	/debug/pprof the standard net/http/pprof profiling surface
//
// The server observes without being load-bearing: it attaches one ring sink
// (whose evictions are counted in the registry as
// obs.ring_dropped_events) plus one per-/events-client sink, and slow
// clients lose events rather than stalling the bus (every event carries its
// Seq, so a client sees its own gaps).
package debughttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"sharebackup/internal/obs"
)

// Config wires the server's data sources.
type Config struct {
	// Registry backs /varz. Nil means obs.DefaultRegistry.
	Registry *obs.Registry
	// Bus backs /events. Nil means obs.Default.
	Bus *obs.Bus
}

// backlog is the replay ring capacity for /events?replay=1.
const backlog = 1024

func (c *Config) setDefaults() {
	if c.Registry == nil {
		c.Registry = obs.DefaultRegistry
	}
	if c.Bus == nil {
		c.Bus = obs.Default
	}
}

// Server is a running introspection server. Close detaches its sinks and
// stops the listener.
type Server struct {
	cfg  Config
	lis  net.Listener
	http *http.Server
	ring *obs.Ring
}

// newServer attaches the backlog ring but does not listen — the seam that
// lets tests mount handler() on an httptest server.
func newServer(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{cfg: cfg}
	s.ring = obs.NewRing(backlog)
	s.ring.CountDropsIn(cfg.Registry.Counter("obs.ring_dropped_events"))
	cfg.Bus.Attach(s.ring)
	return s
}

// Start listens on addr (e.g. "127.0.0.1:6060", or ":0" for an ephemeral
// port) and serves the introspection surface until Close.
func Start(addr string, cfg Config) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debughttp: %w", err)
	}
	s := newServer(cfg)
	s.lis = lis
	s.http = &http.Server{Handler: s.handler()}
	go s.http.Serve(lis) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// Addr returns the server's listen address (host:port).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close detaches the backlog sink and stops the listener. In-flight /events
// streams end when their clients disconnect.
func (s *Server) Close() error {
	s.cfg.Bus.Detach(s.ring)
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// handler builds the route table. Split out (and exercised via
// httptest) so the HTTP surface is testable without a real listener.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveIndex)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/varz", s.serveVarz)
	mux.HandleFunc("/metricsz", s.serveMetricsz)
	mux.HandleFunc("/events", s.serveEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `sharebackup debug server
  /healthz            liveness
  /varz               metrics snapshot (JSON; ?buckets=1)
  /metricsz           Prometheus text exposition of the same registry
  /events             live event stream (JSONL; ?replay=1, ?n=N)
  /debug/pprof/       profiling
`)
}

func (s *Server) serveMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.cfg.Registry.PromText())
}

func (s *Server) serveVarz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.cfg.Registry.Export(r.URL.Query().Get("buckets") == "1")) //nolint:errcheck
}

// chanSink forwards bus events into a buffered channel, dropping them when
// the client cannot keep up — the bus must never block on a slow HTTP reader.
// The client sees a drop as a gap in Seq.
type chanSink chan obs.Event

func (c chanSink) Event(ev obs.Event) {
	select {
	case c <- ev:
	default:
	}
}

func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := -1
	if ns := q.Get("n"); ns != "" {
		n, err := strconv.Atoi(ns)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		limit = n
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		// Push the headers out now: a client tailing a quiet bus should
		// see the stream open immediately, not on the first event.
		flusher.Flush()
	}

	write := func(ev obs.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	sent := 0
	if q.Get("replay") == "1" {
		for _, ev := range s.ring.Events() {
			if limit >= 0 && sent >= limit {
				return
			}
			if !write(ev) {
				return
			}
			sent++
		}
	}
	if limit >= 0 && sent >= limit {
		return
	}

	sink := make(chanSink, 256)
	s.cfg.Bus.Attach(sink)
	defer s.cfg.Bus.Detach(sink)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sink:
			if !write(ev) {
				return
			}
			sent++
			if limit >= 0 && sent >= limit {
				return
			}
		}
	}
}
