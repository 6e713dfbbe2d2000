package ctlnet

import (
	"time"

	"sharebackup/internal/sbnet"
)

// expiryQueue is the server's failure detector: the switches it tracks, kept
// in last-seen order. Every switch has the same timeout, so the order of
// last-seen stamps IS the order of expiries — the earliest deadline is always
// at the head and a keep-alive is "stamp and move to back". That is why a
// uniform timeout needs neither a heap nor a timer wheel: both exist to order
// deadlines that arrive out of order, and these arrive sorted.
//
// The queue is pure: times are offsets on whatever clock the caller stamps
// with (the server uses the process epoch), and there is no clock, lock or
// socket inside — the detector goroutine owns it exclusively and the tests drive
// it without sleeping.
//
// State is dense per-switch columns indexed by SwitchID; the list is
// intrusive (prev/next are switch IDs, qNone at the ends).
type expiryQueue struct {
	deadline time.Duration
	lastSeen []time.Duration
	prev     []int32
	next     []int32
	state    []uint8
	head     int32
	tail     int32
	n        int
	out      []deadCandidate // expire's reusable result
}

const qNone int32 = -1

// Per-switch detector states.
const (
	qUnknown uint8 = iota // never seen, or expired and handed off
	qQueued               // in the list, deadline pending
	qLapsed               // expired while not on active duty (see lapse)
)

// deadCandidate is a switch whose deadline passed; lastSeen is its final
// keep-alive stamp on the queue's clock.
type deadCandidate struct {
	id       sbnet.SwitchID
	lastSeen time.Duration
}

func newExpiryQueue(size int, deadline time.Duration) *expiryQueue {
	return &expiryQueue{
		deadline: deadline,
		lastSeen: make([]time.Duration, size),
		prev:     make([]int32, size),
		next:     make([]int32, size),
		state:    make([]uint8, size),
		head:     qNone,
		tail:     qNone,
	}
}

// len is the number of switches with a pending deadline.
func (q *expiryQueue) len() int { return q.n }

// touch records a keep-alive from id at time at and returns the silence it
// ended (zero for a switch that was not being tracked). Out-of-range IDs are
// ignored, and so is a stamp older than the one already held. Stamps normally
// arrive in time order and the entry goes to the back in O(1); an older stamp
// (a promotion's, folded after the keep-alives that followed it) walks back
// from the tail to its sorted place, so the head is the earliest expiry
// whatever the input order.
func (q *expiryQueue) touch(id sbnet.SwitchID, at time.Duration) (gap time.Duration) {
	i := int32(id)
	if i < 0 || int(i) >= len(q.state) {
		return 0
	}
	if q.state[i] == qQueued {
		if at <= q.lastSeen[i] {
			return 0
		}
		gap = at - q.lastSeen[i]
		q.unlink(i)
	}
	q.state[i] = qQueued
	q.lastSeen[i] = at
	after := q.tail
	for after != qNone && q.lastSeen[after] > at {
		after = q.prev[after]
	}
	q.linkAfter(i, after)
	return gap
}

// expire pops, in expiry order, every switch silent for at least the
// deadline at time now. The result is valid until the next call.
func (q *expiryQueue) expire(now time.Duration) []deadCandidate {
	q.out = q.out[:0]
	for q.head != qNone && now-q.lastSeen[q.head] >= q.deadline {
		i := q.head
		q.unlink(i)
		q.state[i] = qUnknown
		q.out = append(q.out, deadCandidate{id: sbnet.SwitchID(i), lastSeen: q.lastSeen[i]})
	}
	return q.out
}

// nextExpiry is when the head's deadline passes; ok is false on an empty
// queue.
func (q *expiryQueue) nextExpiry() (at time.Duration, ok bool) {
	if q.head == qNone {
		return 0, false
	}
	return q.lastSeen[q.head] + q.deadline, true
}

// lapse marks a just-expired switch as having timed out while off active
// duty (a silent backup, a failed switch's last gasp): nothing to recover, so
// it leaves the queue, but rearm can bring it back if it is promoted before
// its agent speaks again.
func (q *expiryQueue) lapse(id sbnet.SwitchID) {
	if q.state[id] == qUnknown {
		q.state[id] = qLapsed
	}
}

// rearm restarts the deadline of a lapsed switch from at — the switch was
// just promoted to active duty and its agent is already known to be silent.
// Any other switch is left alone: a queued one keeps its own (earlier)
// deadline, an unknown one never had an agent to miss.
func (q *expiryQueue) rearm(id sbnet.SwitchID, at time.Duration) {
	if i := int(id); i >= 0 && i < len(q.state) && q.state[i] == qLapsed {
		q.touch(id, at)
	}
}

func (q *expiryQueue) unlink(i int32) {
	p, nx := q.prev[i], q.next[i]
	if p == qNone {
		q.head = nx
	} else {
		q.next[p] = nx
	}
	if nx == qNone {
		q.tail = p
	} else {
		q.prev[nx] = p
	}
	q.n--
}

// linkAfter inserts i behind after (qNone: at the head).
func (q *expiryQueue) linkAfter(i, after int32) {
	q.prev[i] = after
	if after == qNone {
		q.next[i] = q.head
		q.head = i
	} else {
		q.next[i] = q.next[after]
		q.next[after] = i
	}
	if nx := q.next[i]; nx == qNone {
		q.tail = i
	} else {
		q.prev[nx] = i
	}
	q.n++
}
