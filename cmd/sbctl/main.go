// Command sbctl runs the live control-plane demo: a ShareBackup controller
// server on a loopback TCP socket, one keep-alive agent per active switch,
// and a monitor subscription. It then kills a switch (stops its heartbeats)
// and reports the measured wall-clock failover, and injects a link failure
// report to show the replace-both-ends path.
//
// Usage:
//
//	sbctl [-k 4] [-n 1] [-interval 5ms] [-addr 127.0.0.1:0]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sharebackup"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlnet"
	"sharebackup/internal/sbnet"
)

func main() {
	var (
		k        = flag.Int("k", 4, "fat-tree parameter")
		n        = flag.Int("n", 1, "backup switches per failure group")
		interval = flag.Duration("interval", 5*time.Millisecond, "keep-alive interval")
		addr     = flag.String("addr", "127.0.0.1:0", "controller listen address")
	)
	flag.Parse()

	sys, err := sharebackup.New(sharebackup.Config{
		K: *k, N: *n,
		Controller: controller.Config{ProbeInterval: *interval},
	})
	if err != nil {
		fatal(err)
	}
	srv, err := ctlnet.NewServer(*addr, sys.Controller, ctlnet.ServerConfig{
		Interval:      *interval,
		MissThreshold: 3,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Printf("controller listening on %s (k=%d, n=%d, %d switches, %d circuit switches)\n",
		srv.Addr(), *k, *n, sys.Network.NumSwitches(), sys.Network.NumCircuitSwitches())

	mon, err := ctlnet.Subscribe(srv.Addr())
	if err != nil {
		fatal(err)
	}
	defer mon.Close()

	// One agent per active switch.
	var agents []*ctlnet.Agent
	for _, g := range sys.Network.Groups() {
		for _, id := range g.Slots() {
			a, err := ctlnet.Dial(srv.Addr(), id, *interval)
			if err != nil {
				fatal(err)
			}
			agents = append(agents, a)
		}
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	fmt.Printf("%d switch agents connected, heartbeating every %v\n", len(agents), *interval)
	time.Sleep(4 * *interval)

	// Demo 1: node failure. Stop an agent's heartbeats and wait.
	victim := agents[0]
	fmt.Printf("\n--- killing switch %s (heartbeats stop) ---\n", sys.Network.Name(victim.ID))
	t0 := time.Now()
	victim.StopHeartbeats()
	ev := <-mon.Events
	fmt.Printf("recovered in %v (wall clock %v): %s -> %s\n",
		ev.Latency, time.Since(t0), names(sys, ev.Failed), names(sys, ev.Backup))
	mustInvariants(sys)

	// Demo 2: link failure. An agent reports a broken link to its
	// aggregation neighbor; both ends are replaced.
	edge := sys.Network.EdgeGroup(1).Slots()[0]
	agg := sys.Network.AggGroup(1).Slots()[0]
	var reporter *ctlnet.Agent
	for _, a := range agents {
		if a.ID == edge {
			reporter = a
		}
	}
	fmt.Printf("\n--- link failure between %s and %s reported ---\n",
		sys.Network.Name(edge), sys.Network.Name(agg))
	if err := reporter.ReportLinkFailure(*k/2, agg, 0); err != nil {
		fatal(err)
	}
	ev = <-mon.Events
	fmt.Printf("recovered in %v: replaced %s with %s\n",
		ev.Latency, names(sys, ev.Failed), names(sys, ev.Backup))
	mustInvariants(sys)

	// Offline diagnosis of the link failure (Section 4.2).
	results, err := sys.Controller.RunDiagnosis()
	if err != nil {
		fatal(err)
	}
	fmt.Println("\n--- offline diagnosis ---")
	for _, r := range results {
		verdict := "faulty, sent to repair"
		if r.Exonerated {
			verdict = "healthy, returned to backup pool"
		}
		fmt.Printf("%s port %d: %s (probed %d partner interfaces)\n",
			sys.Network.Name(r.Suspect.Switch), r.Suspect.Port, verdict, len(r.Partners))
	}
	mustInvariants(sys)
	fmt.Println("\nall invariants hold; demo complete")
}

func names(sys *sharebackup.System, ids []sbnet.SwitchID) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += "+"
		}
		out += sys.Network.Name(id)
	}
	return out
}

func mustInvariants(sys *sharebackup.System) {
	if err := sys.Network.CheckInvariants(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbctl:", err)
	os.Exit(1)
}
