// Livefailover runs the control plane over real TCP sockets: switch agents
// heartbeat a controller server on loopback; when one goes silent the
// controller fails it over to a shared backup and a subscribed monitor
// receives the recovery event with its measured wall-clock latency.
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
}
