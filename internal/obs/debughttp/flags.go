package debughttp

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sharebackup/internal/obs"
)

// Flags is the observability flag set sbexperiments and sbemu share.
// Register it before flag parsing, Start it after; the fields hold the
// parsed values.
type Flags struct {
	DebugAddr string
	Trace     string
	Events    bool
	SLOBudget time.Duration

	server *Server // what Start started for DebugAddr
}

// RegisterFlags registers -debug-addr, -trace, -events and -slo-budget on
// fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve live introspection (pprof, /varz, /events, /metricsz) on this address, e.g. 127.0.0.1:6060")
	fs.StringVar(&f.Trace, "trace", "", "write structured events as JSONL to this file (summarize with sbtap)")
	fs.BoolVar(&f.Events, "events", false, "log structured events human-readably to stderr")
	fs.DurationVar(&f.SLOBudget, "slo-budget", 0, "recovery-time SLO budget; breaches trip the watchdog (0 disables)")
	return f
}

// Start wires what the parsed flags ask for onto bus and
// obs.DefaultRegistry: bus self-metering, the debug server (whose /events
// follows bus), the trace file, the stderr event log and the SLO watchdog.
// A process whose events go to obs.Default passes it; sbemu -ctlnet passes
// its controller's bus. prog prefixes the debug server's address, printed
// to stderr.
//
// traceSink is -trace's JSONL sink, nil without the flag: sweep trials
// attach it to their own named buses so their events land in the same file
// as the bus' own. cleanup detaches every sink Start attached, flushes the
// trace file and stops the debug server; it returns the first error (in
// practice the trace file's). Call it before the process exits.
func (f *Flags) Start(prog string, bus *obs.Bus) (traceSink obs.Sink, cleanup func() error, err error) {
	reg := obs.DefaultRegistry
	var undo []func() error // run last to first
	cleanup = func() error {
		var first error
		for i := len(undo) - 1; i >= 0; i-- {
			if err := undo[i](); err != nil && first == nil {
				first = err
			}
		}
		undo = nil
		return first
	}

	bus.MeterOverhead(reg)
	if f.DebugAddr != "" {
		srv, err := Start(f.DebugAddr, Config{Bus: bus})
		if err != nil {
			return nil, nil, err
		}
		f.server = srv
		undo = append(undo, srv.Close)
		fmt.Fprintf(os.Stderr, "%s: debug server at http://%s/\n", prog, srv.Addr())
	}
	if f.Trace != "" {
		sink, done, err := obs.TraceSinkToFile(bus, f.Trace)
		if err != nil {
			cleanup() //nolint:errcheck // the trace-file error is the one to report
			return nil, nil, err
		}
		traceSink = sink
		undo = append(undo, done)
	}
	if f.Events {
		detach := obs.EventsToLogf(bus, func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		undo = append(undo, func() error { detach(); return nil })
	}
	if f.SLOBudget > 0 {
		w := obs.NewSLOWatchdog(obs.SLOConfig{Budget: f.SLOBudget, Registry: reg})
		bus.Attach(w)
		undo = append(undo, func() error { bus.Detach(w); return nil })
	}
	return traceSink, cleanup, nil
}
