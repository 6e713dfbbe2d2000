// Livefailover runs the control plane over real TCP sockets: switch agents
// heartbeat a controller on loopback; when one goes silent the controller
// fails it over to a shared backup and a subscribed monitor receives the
// recovery event with its measured wall-clock latency. An edge agent then
// reports a broken link and both of its ends are replaced (Section 4.1). The
// controller is a replicated cluster of one: every recovery is proposed,
// committed and applied through its log, as on a replica of a larger one.
package main

import (
	"fmt"
	"log"
	"time"

	"sharebackup/internal/ctlnet"
)

func main() {
	interval := 5 * time.Millisecond
	// Its two agents are the first edge switches of pods 0 and 1.
	e, err := ctlnet.NewEmulation(ctlnet.EmulationConfig{K: 4, N: 1, NumAgents: 2, Interval: interval})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()
	nw := e.Net
	fmt.Printf("controller on %s\n", e.Server.Addr())

	mon, err := ctlnet.Subscribe(e.Server.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	// Agents for the core failure group.
	var agents []*ctlnet.Agent
	for _, id := range nw.CoreGroup(0).Slots() {
		a, err := ctlnet.Dial(e.Server.Addr(), id, interval)
		if err != nil {
			log.Fatal(err)
		}
		defer a.Close()
		agents = append(agents, a)
	}
	time.Sleep(4 * interval)

	fmt.Printf("killing core switch %s...\n", nw.Name(agents[1].ID))
	agents[1].StopHeartbeats()

	ev := <-mon.Events
	fmt.Printf("failover event: kind=%s failed=%s backup=%s latency=%v\n",
		ev.Kind, nw.Name(ev.Failed[0]), nw.Name(ev.Backup[0]), ev.Latency)
	if err := nw.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("network invariants hold after live failover")

	// A link failure is reported, not detected by silence: the edge agent
	// names its first up-port and the aggregation interface at the far end,
	// and the controller replaces both switches.
	edge := e.Agents[1].ID
	agg := nw.AggGroup(1).Slots()[0]
	fmt.Printf("reporting link failure %s <-> %s...\n", nw.Name(edge), nw.Name(agg))
	if err := e.FailLink(1, 0); err != nil {
		log.Fatal(err)
	}
	ev = <-mon.Events
	fmt.Printf("failover event: kind=%s replaced both ends:", ev.Kind)
	for i := range ev.Failed {
		fmt.Printf(" %s -> %s", nw.Name(ev.Failed[i]), nw.Name(ev.Backup[i]))
	}
	fmt.Printf(" latency=%v\n", ev.Latency)
	if err := nw.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("network invariants hold after link failover")
}
