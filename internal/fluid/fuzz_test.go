package fluid

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"sharebackup/internal/topo"
)

// Operations of a FuzzSimulatorInputs program. Each is one byte (mod
// simOpCount) followed by its operands; a program that runs out of bytes
// reads zeros. A float is 8 raw bytes (little-endian IEEE 754 bits: NaN, ±Inf,
// negatives and subnormals included), a flow or link ID one signed byte, and
// a path a length byte (mod 8) followed by that many link IDs.
const (
	simOpAdd     = iota // id, bytes, arrival, path: AddFlow
	simOpSetPath        // id, path: SetPath
	simOpRun            // until: Run
	simOpAdvance        // d: Run(Now() + d/16), d one unsigned byte
	simOpDrain          // RunToCompletion
	simOpCount
)

// fuzzMaxFlows bounds a program's flows, so one input stays milliseconds.
const fuzzMaxFlows = 64

// FuzzSimulatorInputs drives two Simulators, at one worker and at three, on a
// k=4 fat-tree with every input the package takes from outside — AddFlow's
// ID, size, arrival and route, SetPath's ID and route, Run's horizon — decoded
// raw from the fuzzer's bytes, and checks after every Run or RunToCompletion
// that returns:
//
//   - no panic, and no hang (a hang shows as the fuzzer's or go test's
//     timeout);
//   - no link carries more than its capacity, 1e-9 relative;
//   - no rate is negative (or NaN);
//   - every done flow finishes at or after its arrival;
//   - both simulators agree: the same errors, the same check outcome, and
//     every rate and finish time on the same bits.
//
// The committed corpus holds one reproducer per input that once hung or
// crashed Run: a NaN arrival, Run(+Inf), and a link ID outside the fabric.
func FuzzSimulatorInputs(f *testing.F) {
	f.Add(simProgram(
		simAdd(0, 4, 0, 0, 16, 33),
		simAdd(1, 2, 0.5, 1, 17, 34, 45),
		simRun(1),
		simSetPath(0, 2, 18),
		simAdvance(8),
		simSetPath(1),
		simAdd(2, 1, 3, 0),
		simDrain(),
	))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := runSimProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}

func runSimProgram(prog []byte) error {
	ft, err := topo.NewFatTree(topo.Config{K: 4})
	if err != nil {
		return err
	}
	s, s3 := New(ft.Topology), New(ft.Topology)
	s.SetWorkers(1)
	s3.SetWorkers(3)
	s3.pool.helpersOnly = true // queued passes run on helpers, even on one core
	// both applies op to the two simulators; their errors must agree.
	both := func(op func(*Simulator) error) (error, error) {
		err := op(s)
		if err3 := op(s3); (err == nil) != (err3 == nil) || err != nil && err.Error() != err3.Error() {
			return err, fmt.Errorf("one worker: %v; three: %v", err, err3)
		}
		return err, nil
	}
	pos := 0
	next := func() byte {
		pos++
		if pos > len(prog) {
			return 0
		}
		return prog[pos-1]
	}
	float := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	path := func() topo.Path {
		var p topo.Path
		for n := next() % 8; n > 0; n-- {
			p.Links = append(p.Links, topo.LinkID(int8(next())))
		}
		return p
	}
	for pos < len(prog) {
		// A rejection or a stalled RunToCompletion is an outcome, not a
		// failure; a disagreement between the simulators is.
		var err, diff error
		ran := true
		switch next() % simOpCount {
		case simOpAdd:
			id, bytes, arrival, p := FlowID(int8(next())), float(), float(), path()
			if len(s.hot) < fuzzMaxFlows {
				_, diff = both(func(s *Simulator) error { return s.AddFlow(id, bytes, arrival, p) })
			}
			ran = false
		case simOpSetPath:
			id, p := FlowID(int8(next())), path()
			_, diff = both(func(s *Simulator) error { return s.SetPath(id, p) })
			ran = false
		case simOpRun:
			until := float()
			err, diff = both(func(s *Simulator) error { return s.Run(until) })
		case simOpAdvance:
			d := float64(next()) / 16
			err, diff = both(func(s *Simulator) error { return s.Run(s.now + d) })
		case simOpDrain:
			_, diff = both(func(s *Simulator) error { return s.RunToCompletion() })
		}
		if diff != nil {
			return diff
		}
		if ran && err == nil {
			if diff := sameState(s, s3); diff != nil {
				return diff
			}
			if err := checkSimState(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameState reports the first difference between two simulators fed the same
// inputs: their check outcome, or any flow's rate or finish bits.
func sameState(a, b *Simulator) error {
	ea, eb := checkSimState(a), checkSimState(b)
	if (ea == nil) != (eb == nil) || ea != nil && ea.Error() != eb.Error() {
		return fmt.Errorf("checks disagree across worker counts: %v; %v", ea, eb)
	}
	for id := FlowID(0); id < FlowID(len(a.hot)); id++ {
		fa, fb := a.Flow(id), b.Flow(id)
		if math.Float64bits(fa.Rate()) != math.Float64bits(fb.Rate()) || math.Float64bits(fa.Finish()) != math.Float64bits(fb.Finish()) {
			return fmt.Errorf("flow %d: rate %v finish %v at one worker, rate %v finish %v at three", id, fa.Rate(), fa.Finish(), fb.Rate(), fb.Finish())
		}
	}
	return nil
}

// checkSimState checks the invariants FuzzSimulatorInputs promises against
// freshly recomputed rates.
func checkSimState(s *Simulator) error {
	usage := make([]float64, len(s.links))
	for _, fi := range s.active {
		h := &s.hot[fi]
		if h.nl == 0 {
			continue // stalled: a slot with no route may have no span either
		}
		for _, l := range s.linkArena[h.off : h.off+h.nl] {
			usage[l] += h.rate
		}
	}
	for l, u := range usage {
		if c := s.links[l].cap; u > c*(1+1e-9) {
			return fmt.Errorf("link %d carries %v, capacity %v", l, u, c)
		}
	}
	for id := FlowID(0); id < FlowID(len(s.hot)); id++ {
		f := s.Flow(id)
		if r := f.Rate(); !(r >= 0) {
			return fmt.Errorf("flow %d has rate %v", id, r)
		}
		if f.Done() && !(f.Finish() >= f.Arrival()) {
			return fmt.Errorf("flow %d finishes at %v, before its arrival %v", id, f.Finish(), f.Arrival())
		}
	}
	return nil
}

// Encoders for seeds: the inverse of runSimProgram's decoding.

func simProgram(ops ...[]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

func simFloat(v float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
}

func simPath(links ...int8) []byte {
	b := []byte{byte(len(links))}
	for _, l := range links {
		b = append(b, byte(l))
	}
	return b
}

func simAdd(id int8, bytes, arrival float64, links ...int8) []byte {
	b := append([]byte{simOpAdd, byte(id)}, simFloat(bytes)...)
	b = append(b, simFloat(arrival)...)
	return append(b, simPath(links...)...)
}

func simSetPath(id int8, links ...int8) []byte {
	return append([]byte{simOpSetPath, byte(id)}, simPath(links...)...)
}

func simRun(until float64) []byte { return append([]byte{simOpRun}, simFloat(until)...) }

func simAdvance(d byte) []byte { return []byte{simOpAdvance, d} }

func simDrain() []byte { return []byte{simOpDrain} }
