package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

func sprintf(format string, args ...interface{}) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}

// Sink receives events. The bus serializes calls: Event is never invoked
// concurrently for sinks attached to the same bus.
type Sink interface {
	Event(Event)
}

// JSONLSink writes one JSON object per event, newline-delimited — the
// format sbtap summarizes. Encoding errors are remembered (first one wins)
// and subsequent events dropped.
type JSONLSink struct {
	enc *json.Encoder

	mu  sync.Mutex
	err error
}

// NewJSONLSink builds a sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Event implements Sink.
func (s *JSONLSink) Event(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Err returns the first write/encode error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadJSONL decodes a JSONL event stream (as written by JSONLSink).
//
// A truncated final line — the signature a crashed or killed producer
// leaves, since JSONLSink writes whole lines — is tolerated and dropped, so
// a trace file cut short by a crash stays readable.
// Corruption anywhere before the unterminated tail still errors.
func ReadJSONL(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var out []Event
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return out, fmt.Errorf("obs: reading event %d: %w", len(out)+1, err)
		}
		atEOF := err == io.EOF
		terminated := !atEOF // ReadBytes returns io.EOF only for data without the delimiter
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var ev Event
			if uerr := json.Unmarshal(trimmed, &ev); uerr != nil {
				if !terminated {
					return out, nil // truncated final line from a killed producer
				}
				return out, fmt.Errorf("obs: reading event %d: %w", len(out)+1, uerr)
			}
			out = append(out, ev)
		}
		if atEOF {
			return out, nil
		}
	}
}

// LogfSink renders each event human-readably through a printf-style
// function (e.g. log.Printf or a test's t.Logf).
type LogfSink struct {
	logf func(format string, args ...interface{})
}

// NewLogfSink builds a sink over logf.
func NewLogfSink(logf func(format string, args ...interface{})) *LogfSink {
	return &LogfSink{logf: logf}
}

// Event implements Sink.
func (s *LogfSink) Event(ev Event) { s.logf("%s", ev.String()) }

// Ring is a fixed-capacity in-memory event buffer: it keeps the most recent
// Cap events. Older events are evicted silently from the buffer's point of
// view, but never silently from the operator's: every eviction increments
// the registry counter attached via CountDropsIn, so /varz can report how
// much of the stream was lost.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	wrap    bool
	dropCtr *Counter
}

// NewRing builds a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{buf: make([]Event, capacity)}
}

// CountDropsIn mirrors every future eviction into c (typically
// Registry.Counter("obs.ring_dropped_events")), exposing event loss on the
// /varz surface. A nil counter detaches.
func (r *Ring) CountDropsIn(c *Counter) {
	r.mu.Lock()
	r.dropCtr = c
	r.mu.Unlock()
}

// Event implements Sink.
func (r *Ring) Event(ev Event) {
	r.mu.Lock()
	if r.wrap {
		// The slot being overwritten still held an unread event.
		r.dropCtr.Inc()
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrap = true
	}
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrap {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
