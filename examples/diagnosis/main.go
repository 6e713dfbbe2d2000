// Diagnosis walks through Section 4.2's offline failure diagnosis: a link
// failure takes both endpoint switches offline for fast recovery, then the
// controller probes each suspect interface through the circuit-switch
// side-port rings, exonerates the healthy side, and keeps the faulty switch
// out for repair — all without touching the live network.
package main

import (
	"fmt"
	"log"
	"time"

	"sharebackup"
)

func main() {
	sys, err := sharebackup.New(sharebackup.Config{K: 6, N: 1})
	if err != nil {
		log.Fatal(err)
	}
	net, ctl := sys.Network, sys.Controller

	edge := net.EdgeGroup(0).Slots()[2]
	agg := net.AggGroup(0).Slots()[2]
	fmt.Printf("link %s <-> %s fails; ground truth: the edge-side interface is broken\n",
		net.Name(edge), net.Name(agg))

	// The edge's up-port 0 reaches agg slot 2 on CS_{2,0,0}... the
	// rotation means edge slot 2's up-port j reaches agg slot (2+j)%3;
	// agg slot 2 is reached via up-port 0.
	rec, err := sys.FailLink(
		sharebackup.EndPoint{Switch: edge, Port: 3 + 0}, // up-port 0
		sharebackup.EndPoint{Switch: agg, Port: 2},
		time.Millisecond,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fast recovery (Section 4.1): both ends replaced in %v: %s->%s, %s->%s\n",
		rec.Total(),
		net.Name(rec.Failed[0]), net.Name(rec.Backup[0]),
		net.Name(rec.Failed[1]), net.Name(rec.Backup[1]))

	fmt.Println("\noffline diagnosis (Section 4.2, Figure 4):")
	results, err := sys.RunDiagnosis()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("  suspect %s port %d: probed %d partner interface(s) -> ",
			net.Name(r.Suspect.Switch), r.Suspect.Port, len(r.Partners))
		if r.Exonerated {
			fmt.Println("connectivity found, exonerated, returned to backup pool")
		} else {
			fmt.Println("no connectivity in any configuration, kept offline for repair")
		}
	}
	fmt.Printf("diagnosis spent %d circuit reconfigurations, all on offline/backup switches\n",
		ctl.DiagnosisReconfigs())

	// The faulty switch comes back from repair as a backup; nothing
	// switches back (no disruption).
	if err := ctl.RepairSwitch(edge); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter repair, %s rejoins as a backup (role: %v); the network never switched back\n",
		net.Name(edge), net.Switch(edge).Role)

	if err := net.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("all invariants hold")
}
