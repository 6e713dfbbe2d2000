package fluid

// finEvent is one scheduled completion: the exact finish time implied by
// the flow's rate at the last seal. The heap is *indexed*: each flow's hot
// record carries its heap position (flowHot.heapPos), so a rate change moves
// the flow's one entry in place (O(log n)) instead of abandoning it. The
// heap therefore never holds stale entries — at most one event per active
// flow, no validity checks on pop, no compaction sweeps. The event carries
// the flow's slot by value (16 bytes, no pointers), so heap operations touch
// flow state only to maintain heapPos — in the record the seal that triggered
// the re-key has just written.
type finEvent struct {
	t  float64
	fi int32
}

// finHeap is a hand-rolled indexed binary min-heap of finish events, ordered
// by time then slot (a slot is its flow's ID; the tie-break keeps cohort
// completion order deterministic and ID-sorted).
// Hand-rolled rather than container/heap so the sift loops stay inlineable
// and allocation-free on the hot path; the sift helpers live on Simulator
// because every swap must mirror into the flows' heapPos.
type finHeap []finEvent

func (h finHeap) Len() int { return len(h) }

func (h finHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].fi < h[j].fi
}

// finSchedule inserts — or, if the flow already has an event, re-keys in
// place — fi's finish event at time t.
func (s *Simulator) finSchedule(fi int32, t float64) {
	if p := int(s.hot[fi].heapPos); p >= 0 {
		old := s.fin[p].t
		s.fin[p].t = t
		if t < old {
			s.finUp(p)
		} else if t > old {
			s.finDown(p)
		}
		return
	}
	p := len(s.fin)
	s.hot[fi].heapPos = int32(p)
	s.fin = grow(s.fin, 1)
	s.fin[p] = finEvent{t: t, fi: fi}
	s.finUp(p)
}

// finRemove deletes fi's finish event if one is scheduled (rate dropped to
// zero: stalled, or starved by background).
func (s *Simulator) finRemove(fi int32) {
	p := int(s.hot[fi].heapPos)
	if p < 0 {
		return
	}
	s.hot[fi].heapPos = -1
	h := s.fin
	n := len(h) - 1
	if p != n {
		h[p] = h[n]
		s.hot[h[p].fi].heapPos = int32(p)
		s.fin = h[:n]
		if !s.finDown(p) {
			s.finUp(p)
		}
	} else {
		s.fin = h[:n]
	}
}

// finPopHead removes the minimum entry; callers peek s.fin[0] first.
func (s *Simulator) finPopHead() {
	h := s.fin
	n := len(h) - 1
	s.hot[h[0].fi].heapPos = -1
	if n > 0 {
		h[0] = h[n]
		s.hot[h[0].fi].heapPos = 0
	}
	s.fin = h[:n]
	s.finDown(0)
}

func (s *Simulator) finUp(i int) {
	h, hot := s.fin, s.hot
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		hot[h[i].fi].heapPos = int32(i)
		hot[h[parent].fi].heapPos = int32(parent)
		i = parent
	}
}

// finDown reports whether the entry moved, so finRemove's replacement entry
// can try sifting up only when it did not sink.
func (s *Simulator) finDown(i int) bool {
	h, hot := s.fin, s.hot
	n := len(h)
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		hot[h[i].fi].heapPos = int32(i)
		hot[h[c].fi].heapPos = int32(c)
		i = c
	}
	return i > i0
}
