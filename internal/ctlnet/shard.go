package ctlnet

import (
	"sync"
	"time"

	"sharebackup/internal/sbnet"
)

// The keep-alive fan-in is sharded by failure group so the hot path scales
// to tens of thousands of agents: a connection reader appends one record to
// its shard's pending list (one short lock, no controller call, no shared
// server lock) and moves on. One goroutine per shard owns the shard's
// expiryQueue (expiry.go) and sleeps on a single timer armed for the queue
// head's deadline: when it fires the goroutine folds the pending records
// into the queue, pops exactly the switches whose deadline has passed, and
// re-arms — no tick and no scan, O(records folded + switches expired) per
// wake, and on a healthy fleet about one wake per (deadline - Interval)
// whatever the fleet size. Each expired switch on active duty is handed to
// its own recoverDead goroutine, which proposes the failover — one log entry
// per recovery. The detection math is unchanged from the unsharded server —
// the controller's Heartbeat is injected at recover time from the candidate's
// recorded lastSeen, so detection latency is still "time of action minus last
// heartbeat".

// kaRecord is one observed keep-alive (or hello), stamped on the process
// epoch (Server.Now).
type kaRecord struct {
	id sbnet.SwitchID
	at time.Duration
}

// kaShard owns keep-alive state for a subset of failure groups. Only the
// lists under mu are shared (readers append, the shard loop swaps them out);
// the queue is touched exclusively by the shard's own goroutine.
type kaShard struct {
	mu sync.Mutex
	// pending is time-ordered by construction: every record is stamped
	// under mu, so the fold never moves the queue's head backwards.
	pending []kaRecord
	// promoted lists backups just put on active duty (see Server.promoted).
	promoted []kaRecord

	// kick wakes the shard loop early when pending outgrows pendingKick, so
	// a deadline far beyond the keep-alive rate (the fleet bench's is hours)
	// cannot let the list grow without bound.
	kick chan struct{}

	queue *expiryQueue
	// folded is the previous wake's pending list, swapped back in at the next
	// wake so the steady state allocates nothing. Shard goroutine only.
	folded []kaRecord
}

// pendingKick is the pending length that wakes a shard ahead of its timer.
// A healthy shard folds two or three records per switch per wake, so only
// shards tracking thousands of switches — or sleeping on a huge deadline —
// ever reach it.
const pendingKick = 1 << 14

func newKAShard(fleetSize int, deadline time.Duration) *kaShard {
	return &kaShard{
		kick:  make(chan struct{}, 1),
		queue: newExpiryQueue(fleetSize, deadline),
	}
}

// shardIndex maps a switch to its shard. In-model switches shard by failure
// group, so one group's agents land on one shard and a recovery storm in a
// group cannot convoy every other group's detector. Synthetic fleet IDs
// (beyond the model, admitted by ServerConfig.FleetSize for scale benches)
// shard by ID directly.
func (s *Server) shardIndex(id sbnet.SwitchID) int {
	if int(id) < s.numSwitches {
		g := s.ctl.Network().Switch(id).Group
		return int(g) % len(s.shards)
	}
	return int(id) % len(s.shards)
}

// appended wakes the shard loop if the records just appended (under sh.mu,
// since released) carried pending across pendingKick.
func (sh *kaShard) appended(before, after int) {
	if before < pendingKick && after >= pendingKick {
		select {
		case sh.kick <- struct{}{}:
		default:
		}
	}
}

// seen records a heartbeat from id on the wall clock. Hot path: one
// shard-local lock, one stamp, one append.
func (s *Server) seen(id sbnet.SwitchID) {
	if int(id) < 0 || int(id) >= s.fleetSize {
		return
	}
	sh := s.shards[s.shardIndex(id)]
	sh.mu.Lock()
	sh.pending = append(sh.pending, kaRecord{id: id, at: s.Now()})
	n := len(sh.pending)
	sh.mu.Unlock()
	sh.appended(n-1, n)
}

// seenBatch records every valid pair in a keep-alive batch payload, taking
// each destination shard's lock — and stamping — once per batch instead of
// once per pair. Shard indices are staged in the connection's scratch
// (sc.shardOf), so the steady state allocates nothing.
func (s *Server) seenBatch(p []byte, cnt int, sc *srvConn) {
	if cap(sc.shardOf) < cnt {
		sc.shardOf = make([]uint8, cnt)
	}
	so := sc.shardOf[:cnt]
	for i := 0; i < cnt; i++ {
		id, _ := kaBatchPair(p, i)
		if int(id) < 0 || int(id) >= s.fleetSize {
			so[i] = 0xFF // out of model and fleet: forget the pair
			continue
		}
		so[i] = uint8(s.shardIndex(id)) // numShards <= 255
	}
	for si, sh := range s.shards {
		locked := false
		var now time.Duration
		var before int
		for i := 0; i < cnt; i++ {
			if int(so[i]) != si {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
				now = s.Now()
				before = len(sh.pending)
			}
			id, _ := kaBatchPair(p, i)
			sh.pending = append(sh.pending, kaRecord{id: id, at: now})
		}
		if locked {
			after := len(sh.pending)
			sh.mu.Unlock()
			sh.appended(before, after)
		}
	}
}

// promoted tells the detector that a recovery just put backup id on active
// duty. If the backup's agent had already gone silent and timed out while it
// was still a spare — nothing to recover then, so the queue let it lapse —
// its deadline restarts now, and the switch is declared dead within one
// deadline of its promotion unless the agent speaks first. A backup that is
// still being tracked, or never had an agent, is unaffected.
func (s *Server) promoted(id sbnet.SwitchID) {
	if int(id) < 0 || int(id) >= s.fleetSize {
		return
	}
	sh := s.shards[s.shardIndex(id)]
	sh.mu.Lock()
	sh.promoted = append(sh.promoted, kaRecord{id: id, at: s.Now()})
	sh.mu.Unlock()
}

// shardLoop is one shard's detector: sleep until the earliest deadline,
// fold, expire, hand off, re-arm.
func (s *Server) shardLoop(sh *kaShard) {
	defer s.wg.Done()
	deadline := sh.queue.deadline
	armedFor := s.Now() + deadline
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-sh.kick:
		case <-timer.C:
		}
		dead, next := s.shardWake(sh, armedFor)
		armedFor = next
		s.wg.Add(len(dead))
		for _, c := range dead {
			go s.recoverDead(c)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		// A deadline already behind us (the hand-off or the role check took a
		// while) is due now; the coming wake is not late on its account.
		now := s.Now()
		if armedFor < now {
			armedFor = now
		}
		timer.Reset(armedFor - now)
	}
}

// shardWake runs one detector wake: it folds the records that arrived since
// the last one, expires the queue at the current time, and returns the
// switches to recover (in expiry order) with the time to wake next — the new
// head's deadline, or one full deadline from now on an empty shard (nothing
// stamped after this wake can expire sooner). armedFor is when this wake was
// due; see the stall guard below.
func (s *Server) shardWake(sh *kaShard, armedFor time.Duration) (dead []deadCandidate, next time.Duration) {
	q := sh.queue
	entries := q.len()
	defer func() { s.gDetectorEntries.Add(int64(q.len() - entries)) }()
	sh.mu.Lock()
	pending, promoted := sh.pending, sh.promoted
	sh.pending, sh.promoted = sh.folded[:0], nil
	sh.mu.Unlock()
	sh.folded = pending
	s.mShardWakes.Inc()
	s.mRecordsFolded.Add(int64(len(pending)))

	// Fold: stamp and move to back. A keep-alive that ends a silence of two
	// intervals or more accounts for the probes that silence missed.
	interval := s.cfg.Interval
	for _, r := range pending {
		if gap := q.touch(r.id, r.at); gap >= 2*interval {
			s.mProbeMisses.Add(int64(gap/interval) - 1)
		}
	}
	for _, r := range promoted {
		q.rearm(r.id, r.at)
	}

	now := s.Now()
	// Stall guard. A wake that ran a quarter of an interval or more behind
	// its timer is a detector's own evidence that the process stood still —
	// the host took the CPU, the runtime stopped the world — and the readers
	// (and any in-process agents) stood still with it: keep-alives that
	// arrived meanwhile are still unread in socket buffers, and the silence
	// on a queue's head may be ours, not the switch's. The shards share the
	// sighting (their timers are spread over the keep-alive phases, so a
	// stall rarely slips between all of them): for one keep-alive interval
	// after it, by when every live agent has been heard again, no shard
	// declares anybody.
	if now-armedFor >= interval/4 {
		s.stallSeen.Store(int64(now))
	}
	if exp, ok := q.nextExpiry(); ok && exp <= now {
		if graceEnd := time.Duration(s.stallSeen.Load()) + interval; now < graceEnd {
			s.mStallGraces.Inc()
			return nil, graceEnd
		}
	}
	expired := q.expire(now)
	if len(expired) > 0 {
		// Role reads must not race command applies mutating the network;
		// s.mu is taken only on this rare silent path, never on the
		// per-keep-alive hot path.
		s.mu.Lock()
		nw := s.ctl.Network()
		for _, c := range expired {
			s.mProbeMisses.Add(int64(s.cfg.MissThreshold))
			// Synthetic fleet IDs have no role and no backup to fail over
			// to — a silent one is simply forgotten.
			if int(c.id) >= s.numSwitches {
				continue
			}
			// So is a switch off active duty (a silent spare, a failed
			// switch's last gasp): it lapses, and a later keep-alive or a
			// promotion re-registers it.
			if nw.Switch(c.id).Role != sbnet.RoleActive {
				q.lapse(c.id)
				continue
			}
			s.hDetectOvershoot.Record(int64(now - c.lastSeen - q.deadline))
			dead = append(dead, c)
		}
		s.mu.Unlock()
	}

	next, ok := q.nextExpiry()
	if !ok {
		next = now + q.deadline
	}
	return dead, next
}
