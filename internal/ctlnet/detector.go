package ctlnet

import (
	"sync"
	"time"

	"sharebackup/internal/sbnet"
)

// The keep-alive fan-in has one detector per server: a connection reader
// appends one record to the detector's pending list (one short lock, no
// controller call, no server lock) and moves on. One goroutine, detectLoop,
// owns the expiryQueue (expiry.go) and sleeps on a single timer: when it
// fires the goroutine folds the pending records into the queue, pops exactly
// the switches whose deadline has passed, and re-arms for the queue head's
// deadline or half an interval from now, whichever is sooner — no tick and no
// scan, O(records folded + switches expired) per wake, and at most two wakes
// per keep-alive interval whatever the fleet size. Each expired switch on
// active duty is handed to its own recoverDead goroutine, which proposes the
// failover — one log entry per recovery. The controller's Heartbeat is
// injected at recover time from the candidate's recorded lastSeen, so
// detection latency is "time of action minus last heartbeat".

// kaRecord is one observed keep-alive (or hello), stamped on the process
// epoch (Server.Now).
type kaRecord struct {
	id sbnet.SwitchID
	at time.Duration
}

// detector is the server's keep-alive state. Only the lists under mu are
// shared (readers append, the loop swaps them out); the rest belongs to the
// wake, which runs on detectLoop alone.
type detector struct {
	mu sync.Mutex
	// pending is time-ordered by construction: every record is stamped
	// under mu, so the fold never moves the queue's head backwards. A wake
	// at least every half interval bounds it to half an interval's records.
	pending []kaRecord
	// promoted lists backups just put on active duty (see Server.promoted).
	promoted []kaRecord

	queue *expiryQueue
	// folded is the previous wake's pending list, swapped back in at the next
	// wake so the steady state allocates nothing.
	folded []kaRecord
	// stallAt is when (on the process epoch) a wake last ran a quarter of an
	// interval or more behind its timer — the stall guard (wake). It starts
	// one interval before the epoch, so it guards nothing.
	stallAt time.Duration
}

// seen records a heartbeat from id, a switch of the fabric, on the wall
// clock. Hot path: one lock, one stamp, one append.
func (s *Server) seen(id sbnet.SwitchID) {
	d := &s.det
	d.mu.Lock()
	d.pending = append(d.pending, kaRecord{id: id, at: s.Now()})
	d.mu.Unlock()
}

// seenBatch records every valid pair in a keep-alive batch payload under one
// lock and one stamp.
func (s *Server) seenBatch(p []byte, cnt int) {
	d := &s.det
	d.mu.Lock()
	now := s.Now()
	for i := 0; i < cnt; i++ {
		if id, _ := kaBatchPair(p, i); int(id) >= 0 && int(id) < s.numSwitches {
			d.pending = append(d.pending, kaRecord{id: id, at: now})
		}
	}
	d.mu.Unlock()
}

// promoted tells the detector that a recovery just put backup id on active
// duty. If the backup's agent had already gone silent and timed out while it
// was still a spare — nothing to recover then, so the queue let it lapse —
// its deadline restarts now, and the switch is declared dead within one
// deadline of its promotion unless the agent speaks first. A backup that is
// still being tracked, or never had an agent, is unaffected.
func (s *Server) promoted(id sbnet.SwitchID) {
	d := &s.det
	d.mu.Lock()
	d.promoted = append(d.promoted, kaRecord{id: id, at: s.Now()})
	d.mu.Unlock()
}

// detectLoop is the detector's goroutine: sleep until the next wake, fold,
// expire, hand off, re-arm.
func (s *Server) detectLoop() {
	defer s.wg.Done()
	armedFor := s.Now() + s.cfg.Interval/2
	timer := time.NewTimer(s.cfg.Interval / 2)
	defer timer.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-timer.C:
		}
		dead, next := s.wake(s.Now(), armedFor)
		armedFor = next
		s.wg.Add(len(dead))
		for _, c := range dead {
			go s.recoverDead(c)
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

// wake runs one detector wake at now: it folds the records that arrived since
// the last one, expires the queue, and returns the switches to recover (in
// expiry order) with the time to wake next — the new head's deadline or half
// an interval from now, whichever is sooner. armedFor is when this wake was
// due; see the stall guard below.
func (s *Server) wake(now, armedFor time.Duration) (dead []deadCandidate, next time.Duration) {
	d := &s.det
	q := d.queue
	entries := q.len()
	defer func() { s.gDetectorEntries.Add(int64(q.len() - entries)) }()
	d.mu.Lock()
	pending, promoted := d.pending, d.promoted
	d.pending, d.promoted = d.folded[:0], nil
	d.mu.Unlock()
	d.folded = pending
	s.mDetectorWakes.Inc()

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

	// Stall guard. A wake that ran a quarter of an interval or more behind
	// its timer is the detector's own evidence that the process stood still
	// — the host took the CPU, the runtime stopped the world — and the
	// readers (and any in-process agents) stood still with it: keep-alives
	// that arrived meanwhile are still unread in socket buffers, and the
	// silence on the queue's head may be ours, not the switch's. No wake is
	// ever armed more than half an interval ahead, so a stall of three
	// quarters of an interval or more makes the wake due inside it late by a
	// quarter at least, whatever its phase. For one keep-alive interval after
	// the sighting, by when every live agent has been heard again, the
	// detector declares nobody.
	next = now + interval/2
	if now-armedFor >= interval/4 {
		d.stallAt = now
	}
	if exp, ok := q.nextExpiry(); ok && exp <= now {
		if graceEnd := d.stallAt + interval; now < graceEnd {
			s.mStallGraces.Inc()
			return nil, min(graceEnd, next)
		}
	}
	expired := q.expire(now)
	for _, c := range expired {
		s.mProbeMisses.Add(int64(s.cfg.MissThreshold))
		// A switch off active duty (a silent spare, a failed switch's last
		// gasp) has nothing to fail over: it lapses, and a later keep-alive
		// or a promotion re-registers it. The role read takes the replica
		// state's lock, only on this rare silent path.
		if !s.state.active(c.id) {
			q.lapse(c.id)
			continue
		}
		s.hDetectOvershoot.Record(int64(now - c.lastSeen - q.deadline))
		dead = append(dead, c)
	}
	if exp, ok := q.nextExpiry(); ok && exp < next {
		next = exp
	}
	return dead, next
}
