package obs

import (
	"fmt"
	"os"
)

// TraceSinkToFile attaches a JSONL sink writing to path on bus (Default
// when nil) and returns the sink and a cleanup function that detaches it,
// flushes, and closes the file. It is the implementation of the commands'
// -trace flag; callers can attach the sink to further buses (each stamping
// its own process name) so their events land in the same file as the bus'
// own, provided they stop emitting (or detach it) before the cleanup runs.
func TraceSinkToFile(bus *Bus, path string) (*JSONLSink, func() error, error) {
	if bus == nil {
		bus = Default
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: trace file: %w", err)
	}
	sink := NewJSONLSink(f)
	bus.Attach(sink)
	return sink, func() error {
		bus.Detach(sink)
		if err := sink.Err(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// EventsToLogf attaches a human-readable sink on bus (Default when nil) and
// returns a detach function. It is the implementation of the commands'
// -events flag.
func EventsToLogf(bus *Bus, logf func(format string, args ...interface{})) func() {
	if bus == nil {
		bus = Default
	}
	sink := NewLogfSink(logf)
	bus.Attach(sink)
	return func() { bus.Detach(sink) }
}
