// Command sbemu traces a packet through the physical ShareBackup network —
// a traceroute over the live circuit state and preloaded impersonation
// tables. It can fail switches along the way and re-trace, showing that the
// logical path survives while the physical switches change (Section 4.3).
//
// Usage:
//
//	sbemu -k 6 -n 1 -src 0/0/0 -dst 3/1/2
//	sbemu -k 6 -n 1 -src 0/0/0 -dst 3/1/2 -fail-path
//	sbemu -fail-path -trace trace.jsonl   # then: sbtap trace.jsonl
//	sbemu -fail-path -events              # human-readable event log on stderr
//
// -ctlnet switches to the distributed control-plane emulation: -cluster
// controller replicas (network model, controller, server, consensus node;
// default 1, a cluster of one), switch agents, and circuit-switch services
// talking over loopback TCP. Every process-in-miniature writes into one
// trace file, trace.jsonl in -trace-dir, stamping its events with its name.
// It injects one link failure per agent, each committed through the
// replicated log, and names the file:
//
//	sbemu -ctlnet -trace-dir /tmp/traces -slo-budget 50us
//	sbtap -spans /tmp/traces/trace.jsonl
//
// With -cluster 2 or more, sbemu kills the leader after the first recovery —
// the survivors elect a replacement and the remaining recoveries complete
// against it, and the stitched spans show the agents' failover hops:
//
//	sbemu -ctlnet -cluster 3 -agents 4 -trace-dir /tmp/traces
//
// The observability flags (-events, -debug-addr, -slo-budget) watch every
// replica's bus: a recovery completes once, on the replica that leads when
// it commits. -trace is refused in this mode: the emulation's trace already
// holds every process.
//
// A flag the chosen mode does not read is an error, not a no-op.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"sharebackup"
	"sharebackup/internal/ctlnet"
	"sharebackup/internal/emu"
	"sharebackup/internal/obs"
	"sharebackup/internal/obs/debughttp"
	"sharebackup/internal/sbnet"
	"sharebackup/internal/topo"
)

func main() {
	var (
		k        = flag.Int("k", 6, "fat-tree parameter")
		n        = flag.Int("n", 1, "backup switches per failure group")
		srcStr   = flag.String("src", "0/0/0", "source host as pod/rack/pos")
		dstStr   = flag.String("dst", "1/0/0", "destination host as pod/rack/pos")
		failPath = flag.Bool("fail-path", false, "fail every switch on the path, recover, and re-trace")

		ctlnetMode = flag.Bool("ctlnet", false, "run the multi-process control-plane emulation over loopback TCP instead of a packet trace")
		traceDir   = flag.String("trace-dir", "", "ctlnet mode: directory for the trace file every process writes (summarize with sbtap)")
		numAgents  = flag.Int("agents", 2, "ctlnet mode: number of switch agents")
		numCS      = flag.Int("cs", 1, "ctlnet mode: number of circuit-switch services")
		cluster    = flag.Int("cluster", 1, "ctlnet mode: controller replicas; with 2 or more they elect a leader and sbemu kills it mid-storm")
	)
	obsFlags := debughttp.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *ctlnetMode {
		rejectUnused("-ctlnet", "debug-addr", "events", "slo-budget", "ctlnet", "k", "n", "agents", "cs", "cluster", "trace-dir")
		if *traceDir == "" {
			dir, err := os.MkdirTemp("", "sbemu-ctlnet-")
			if err != nil {
				fatal(err)
			}
			*traceDir = dir
		}
		if *cluster < 1 {
			fatal(fmt.Errorf("-cluster must be at least 1"))
		}
		runCtlnet(*k, *n, *numAgents, *numCS, *cluster, *traceDir, obsFlags)
		return
	}
	rejectUnused("the packet trace", "debug-addr", "trace", "events", "slo-budget", "k", "n", "src", "dst", "fail-path")

	_, stopObs, err := obsFlags.Start("sbemu", obs.Default)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopObs(); err != nil {
			fatal(err)
		}
	}()

	src, err := parseHost(*srcStr)
	if err != nil {
		fatal(err)
	}
	dst, err := parseHost(*dstStr)
	if err != nil {
		fatal(err)
	}

	sys, err := sharebackup.New(sharebackup.Config{K: *k, N: *n, Metrics: obs.DefaultRegistry})
	if err != nil {
		fatal(err)
	}
	em, err := emu.New(sys.Network)
	if err != nil {
		fatal(err)
	}

	walk, err := em.Deliver(src, dst)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace %s -> %s:\n", *srcStr, *dstStr)
	printWalk(sys, walk)

	if !*failPath {
		return
	}
	fmt.Println("\nfailing every switch on the path...")
	for _, h := range walk {
		if h.Switch == sbnet.NoSwitch {
			continue
		}
		if sys.Network.Switch(h.Switch).Role != sbnet.RoleActive {
			continue
		}
		rec, err := sys.FailNode(h.Switch, time.Millisecond)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %s -> %s (%v)\n",
			sys.Network.Name(rec.Failed[0]), sys.Network.Name(rec.Backup[0]), rec.Total())
	}
	walk2, err := em.Deliver(src, dst)
	if err != nil {
		fatal(fmt.Errorf("delivery after failover: %w", err))
	}
	fmt.Println("\nre-trace through the backups:")
	printWalk(sys, walk2)
	if em.Fingerprint(walk).Equal(em.Fingerprint(walk2)) {
		fmt.Println("\nlogical path identical; only the physical switches changed")
	} else {
		fatal(fmt.Errorf("logical path changed — impersonation broken"))
	}
}

// forwardTo is a sink that re-emits every event on another bus.
type forwardTo struct{ bus *obs.Bus }

func (f forwardTo) Event(ev obs.Event) { f.bus.Emit(ev) }

// rejectUnused exits non-zero, naming them, if any flag set on the command
// line is not among the ones mode reads.
func rejectUnused(mode string, reads ...string) {
	var unused []string
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if len(unused) > 0 {
		fatal(fmt.Errorf("%s does not use %s", mode, strings.Join(unused, ", ")))
	}
}

// runCtlnet drives the control-plane emulation: the controller replicas
// elect a leader, the agents report against it, one link failure per agent,
// and with two or more replicas the leader is killed after the first
// recovery — the rest complete against the replacement the survivors elect,
// with the agents' failover hops traced.
func runCtlnet(k, n, agents, cs, replicas int, traceDir string, obsFlags *debughttp.Flags) {
	em, err := ctlnet.NewClusterEmulation(ctlnet.ClusterConfig{
		EmulationConfig: ctlnet.EmulationConfig{
			K:         k,
			N:         n,
			NumAgents: agents,
			NumCS:     cs,
			TraceDir:  traceDir,
			// Agents legitimately pause heartbeats while chasing the new
			// leader; don't let the survivors misread that as node death.
			MissThreshold: 25,
			Registry:      obs.DefaultRegistry,
		},
		Replicas:  replicas,
		TickEvery: 5 * time.Millisecond,
	})
	if err != nil {
		fatal(err)
	}
	ld, err := em.Leader(10 * time.Second)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ctlnet cluster up: %d replicas, leader controller-%d (%s), %d agents, %d circuit switches\n",
		len(em.Replicas), ld.ID, ld.Server.Addr(), len(em.Agents), len(em.CS))

	// Watch recoveries from a replica that survives: with others to take
	// over, the leader is about to die.
	watch := ld
	for _, r := range em.Replicas {
		if r != ld {
			watch = r
			break
		}
	}
	// The obs flags watch every replica's bus: a recovery completes on the
	// replica that leads when it commits, and leadership moves mid-run.
	watched := &obs.Bus{}
	for _, r := range em.Replicas {
		r.Bus.Attach(forwardTo{watched})
	}
	_, stopObs, err := obsFlags.Start("sbemu", watched)
	if err != nil {
		fatal(err)
	}
	mon, err := ctlnet.Subscribe(watch.Server.Addr())
	if err != nil {
		fatal(err)
	}
	defer mon.Close()

	var killed *ctlnet.Replica
	for i := range em.Agents {
		// After a kill the failures go in at once, while the survivors are
		// still electing: the agents' reports straddle the leader change, so
		// their redirect-and-redial lands inside the report span and the
		// stitched trees show the failover hop. (FailLink blocks until the
		// report is acked by whoever wins.)
		if err := em.FailLink(i, time.Millisecond); err != nil {
			fatal(err)
		}
		select {
		case _, ok := <-mon.Events:
			if !ok {
				fatal(fmt.Errorf("event monitor closed: %v", mon.Err()))
			}
		case <-time.After(10 * time.Second):
			fatal(fmt.Errorf("no recovery event for agent %d within 10s", i))
		}
		if i == 0 && watch != ld {
			fmt.Printf("agent %d recovered on leader controller-%d; killing the leader\n", em.Agents[0].ID, ld.ID)
			if killed, err = em.KillLeader(5 * time.Second); err != nil {
				fatal(err)
			}
		}
	}
	if killed != nil {
		newLd, err := em.Leader(30 * time.Second)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("controller-%d killed; controller-%d elected (term %d)\n",
			killed.ID, newLd.ID, newLd.Node.Term())
		fmt.Printf("injected %d link failures; all recovered (%d through the failover)\n",
			len(em.Agents), len(em.Agents)-1)
	} else {
		fmt.Printf("injected %d link failures; all recovered\n", len(em.Agents))
	}
	if err := stopObs(); err != nil {
		fatal(err)
	}

	files := em.TraceFiles()
	if err := em.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("trace of every process: %s\n", files[0])
	fmt.Printf("summarize it: sbtap -spans %s\n", files[0])
}

func printWalk(sys *sharebackup.System, walk []emu.Hop) {
	for i, h := range walk {
		if h.Host != nil {
			fmt.Printf("  %2d. host %d/%d/%d\n", i, h.Host.Pod, h.Host.Rack, h.Host.Pos)
			continue
		}
		sw := sys.Network.Switch(h.Switch)
		fmt.Printf("  %2d. %-8s (%s slot %d, physical member %d)\n",
			i, sys.Network.Name(h.Switch), kindName(sw.Kind), h.Slot, sw.Member)
	}
}

func kindName(k topo.Kind) string { return k.String() }

func parseHost(s string) (emu.Host, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return emu.Host{}, fmt.Errorf("sbemu: host %q must be pod/rack/pos", s)
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return emu.Host{}, fmt.Errorf("sbemu: host %q: %w", s, err)
		}
		vals[i] = v
	}
	return emu.Host{Pod: vals[0], Rack: vals[1], Pos: vals[2]}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sbemu:", err)
	os.Exit(1)
}
