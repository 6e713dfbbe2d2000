// Livefailover runs the control plane over real TCP sockets: switch agents
// heartbeat a controller server on loopback; when one goes silent the
// controller fails it over to a shared backup and a subscribed monitor
// receives the recovery event with its measured wall-clock latency. An edge
// agent then reports a broken link and both of its ends are replaced
// (Section 4.1).
package main

import (
	"fmt"
	"log"
	"time"

	"sharebackup"
	"sharebackup/internal/controller"
	"sharebackup/internal/ctlnet"
)

func main() {
	interval := 5 * time.Millisecond
	sys, err := sharebackup.New(sharebackup.Config{
		K: 4, N: 1,
		Controller: controller.Config{ProbeInterval: interval},
	})
	if err != nil {
		log.Fatal(err)
	}

	srv, err := ctlnet.NewServer("127.0.0.1:0", sys.Controller, ctlnet.ServerConfig{
		Interval:      interval,
		MissThreshold: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("controller on %s\n", srv.Addr())

	mon, err := ctlnet.Subscribe(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	// Agents for the core failure group.
	var agents []*ctlnet.Agent
	for _, id := range sys.Network.CoreGroup(0).Slots() {
		a, err := ctlnet.Dial(srv.Addr(), id, interval)
		if err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
	}
	time.Sleep(4 * interval)

	fmt.Printf("killing core switch %s...\n", sys.Network.Name(agents[1].ID))
	agents[1].StopHeartbeats()

	ev := <-mon.Events
	fmt.Printf("failover event: kind=%s failed=%s backup=%s latency=%v\n",
		ev.Kind, sys.Network.Name(ev.Failed[0]), sys.Network.Name(ev.Backup[0]), ev.Latency)
	if err := sys.Network.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("network invariants hold after live failover")

	// A link failure is reported, not detected by silence: the edge agent
	// names its up-port and the aggregation interface at the far end, and
	// the controller replaces both switches.
	edge := sys.Network.EdgeGroup(1).Slots()[0]
	agg := sys.Network.AggGroup(1).Slots()[0]
	reporter, err := ctlnet.Dial(srv.Addr(), edge, interval)
	if err != nil {
		log.Fatal(err)
	}
	defer reporter.Close()
	fmt.Printf("reporting link failure %s <-> %s...\n", sys.Network.Name(edge), sys.Network.Name(agg))
	if err := reporter.ReportLinkFailureDetected(sys.Network.K()/2, agg, 0, 0); err != nil {
		log.Fatal(err)
	}
	ev = <-mon.Events
	fmt.Printf("failover event: kind=%s replaced both ends:", ev.Kind)
	for i := range ev.Failed {
		fmt.Printf(" %s -> %s", sys.Network.Name(ev.Failed[i]), sys.Network.Name(ev.Backup[i]))
	}
	fmt.Printf(" latency=%v\n", ev.Latency)
	if err := sys.Network.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("network invariants hold after link failover")
}
