// Package coflow models the coflow workloads of the paper's failure study.
// A coflow (Chowdhury & Stoica, HotNets'12) is a set of parallel flows with
// a collective completion semantic: the application can proceed only when
// every flow in the set has finished, so the Coflow Completion Time (CCT) is
// the finish time of the slowest flow. That straggler semantic is what
// magnifies rare failures into application-level disasters (Figure 1).
//
// The paper replays the Facebook coflow-benchmark trace — rack-level
// traffic from a 150-rack, 10:1 oversubscribed cluster. The trace file is an
// external download, so this package provides both a parser for its exact
// format and a synthetic generator with matching structure and heavy-tailed
// marginals (documented substitution in DESIGN.md).
package coflow

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Flow is one rack-to-rack transfer within a coflow.
type Flow struct {
	Src   int     // source rack
	Dst   int     // destination rack
	Bytes float64 // transfer size in bytes
}

// Coflow is a set of flows that complete together.
type Coflow struct {
	ID      int
	Arrival float64 // seconds from trace start
	Flows   []Flow
}

// Width returns the number of flows in the coflow — the quantity that
// drives failure magnification: P[coflow affected] = 1-(1-p)^Width.
func (c *Coflow) Width() int { return len(c.Flows) }

// TotalBytes sums the coflow's flow sizes.
func (c *Coflow) TotalBytes() float64 {
	sum := 0.0
	for _, f := range c.Flows {
		sum += f.Bytes
	}
	return sum
}

// Trace is a sequence of coflows over a rack-level fabric.
type Trace struct {
	NumRacks int
	Coflows  []Coflow
	Dropped  int // coflows Parse read and left out: no flow crosses racks
}

// Duration returns the time of the last arrival.
func (t *Trace) Duration() float64 {
	max := 0.0
	for i := range t.Coflows {
		if t.Coflows[i].Arrival > max {
			max = t.Coflows[i].Arrival
		}
	}
	return max
}

// TotalFlows counts flows across all coflows.
func (t *Trace) TotalFlows() int {
	n := 0
	for i := range t.Coflows {
		n += t.Coflows[i].Width()
	}
	return n
}

// Partition slices the trace into consecutive windows of windowSec seconds
// by arrival time (the paper runs 5-minute partitions; Section 2.2). Each
// window's coflows have arrivals rebased to the window start. Empty windows
// are included so window indices stay aligned with time, so a window that
// would cut the trace into more than maxWindows of them is refused. An
// infinite window yields one window holding the whole trace.
func (t *Trace) Partition(windowSec float64) ([]*Trace, error) {
	if !(windowSec > 0) {
		return nil, fmt.Errorf("coflow: Partition: window %v must be positive", windowSec)
	}
	span := math.Floor(t.Duration() / windowSec)
	if span >= maxWindows {
		return nil, fmt.Errorf("coflow: Partition: window %v cuts the %vs trace into more than %d windows", windowSec, t.Duration(), maxWindows)
	}
	windows := make([]Trace, int(span)+1)
	out := make([]*Trace, len(windows))
	for i := range out {
		windows[i].NumRacks = t.NumRacks
		out[i] = &windows[i]
	}
	for _, c := range t.Coflows {
		if !(c.Arrival >= 0) {
			return nil, fmt.Errorf("coflow: Partition: coflow %d arrives at %v, before the trace starts", c.ID, c.Arrival)
		}
		w := int(c.Arrival / windowSec)
		if w > 0 {
			c.Arrival -= float64(w) * windowSec
		}
		out[w].Coflows = append(out[w].Coflows, c)
	}
	return out, nil
}

// maxWindows bounds Partition's window count: 2^20 windows (12 days of one-
// second windows) already cost tens of megabytes before any coflow lands.
const maxWindows = 1 << 20

// MB is one megabyte in bytes, the unit of the coflow-benchmark format.
const MB = 1e6

// Parse reads the Facebook coflow-benchmark format:
//
//	<num racks> <num coflows>
//	<id> <arrival ms> <m> <mapper rack> x m <r> <rack>:<sizeMB> x r
//
// Each reducer's bytes are split evenly across the coflow's mappers, giving
// m*r flows, rack-local ones skipped; a coflow left with none is Dropped.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("coflow: empty trace")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 {
		return nil, fmt.Errorf("coflow: header %q: want '<racks> <coflows>'", sc.Text())
	}
	racks, err := strconv.Atoi(header[0])
	if err != nil {
		return nil, fmt.Errorf("coflow: header racks: %w", err)
	}
	if racks <= 0 {
		return nil, fmt.Errorf("coflow: header racks %d must be positive", racks)
	}
	count, err := strconv.Atoi(header[1])
	if err != nil {
		return nil, fmt.Errorf("coflow: header count: %w", err)
	}
	tr := &Trace{NumRacks: racks}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		c, err := parseCoflowLine(text, racks)
		if err != nil {
			return nil, fmt.Errorf("coflow: line %d: %w", line, err)
		}
		if len(c.Flows) == 0 {
			tr.Dropped++
			continue
		}
		tr.Coflows = append(tr.Coflows, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n := len(tr.Coflows) + tr.Dropped; n != count {
		return nil, fmt.Errorf("coflow: header promises %d coflows, file has %d", count, n)
	}
	sort.SliceStable(tr.Coflows, func(i, j int) bool { return tr.Coflows[i].Arrival < tr.Coflows[j].Arrival })
	return tr, nil
}

func parseCoflowLine(text string, racks int) (Coflow, error) {
	f := strings.Fields(text)
	pos := 0
	next := func() (string, error) {
		if pos >= len(f) {
			return "", fmt.Errorf("truncated record")
		}
		s := f[pos]
		pos++
		return s, nil
	}
	nextInt := func() (int, error) {
		s, err := next()
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(s)
	}
	id, err := nextInt()
	if err != nil {
		return Coflow{}, fmt.Errorf("coflow id: %w", err)
	}
	arrMS, err := nextInt()
	if err != nil {
		return Coflow{}, fmt.Errorf("arrival: %w", err)
	}
	if arrMS < 0 {
		return Coflow{}, fmt.Errorf("arrival %d ms is before the trace starts", arrMS)
	}
	m, err := nextInt()
	if err != nil {
		return Coflow{}, fmt.Errorf("mapper count: %w", err)
	}
	if m <= 0 {
		return Coflow{}, fmt.Errorf("mapper count %d must be positive", m)
	}
	mappers := make([]int, m)
	for i := range mappers {
		mappers[i], err = nextInt()
		if err != nil {
			return Coflow{}, fmt.Errorf("mapper %d: %w", i, err)
		}
		if mappers[i] < 0 || mappers[i] >= racks {
			return Coflow{}, fmt.Errorf("mapper rack %d out of range [0,%d)", mappers[i], racks)
		}
	}
	r, err := nextInt()
	if err != nil {
		return Coflow{}, fmt.Errorf("reducer count: %w", err)
	}
	if r <= 0 {
		return Coflow{}, fmt.Errorf("reducer count %d must be positive", r)
	}
	c := Coflow{ID: id, Arrival: float64(arrMS) / 1000}
	for i := 0; i < r; i++ {
		s, err := next()
		if err != nil {
			return Coflow{}, fmt.Errorf("reducer %d: %w", i, err)
		}
		parts := strings.SplitN(s, ":", 2)
		if len(parts) != 2 {
			return Coflow{}, fmt.Errorf("reducer %d: %q is not rack:sizeMB", i, s)
		}
		rack, err := strconv.Atoi(parts[0])
		if err != nil {
			return Coflow{}, fmt.Errorf("reducer %d rack: %w", i, err)
		}
		if rack < 0 || rack >= racks {
			return Coflow{}, fmt.Errorf("reducer rack %d out of range [0,%d)", rack, racks)
		}
		sizeMB, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return Coflow{}, fmt.Errorf("reducer %d size: %w", i, err)
		}
		per := sizeMB * MB / float64(m)
		if !(per > 0) || math.IsInf(per, 1) {
			return Coflow{}, fmt.Errorf("reducer %d size %v MB gives %v-byte flows; sizes must be positive and finite", i, sizeMB, per)
		}
		for _, src := range mappers {
			if src == rack {
				continue // rack-local shuffle: no network flow
			}
			c.Flows = append(c.Flows, Flow{Src: src, Dst: rack, Bytes: per})
		}
	}
	return c, nil
}

// Format writes the trace in coflow-benchmark format, the inverse of Parse
// up to flow regrouping. Note Parse splits reducers into flows, so Format
// reconstructs mapper/reducer structure from the flow set.
func (t *Trace) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d %d\n", t.NumRacks, len(t.Coflows)); err != nil {
		return err
	}
	for i := range t.Coflows {
		c := &t.Coflows[i]
		mapperSet := make(map[int]bool)
		reducerBytes := make(map[int]float64)
		for _, f := range c.Flows {
			mapperSet[f.Src] = true
			reducerBytes[f.Dst] += f.Bytes
		}
		mappers := make([]int, 0, len(mapperSet))
		for m := range mapperSet {
			mappers = append(mappers, m)
		}
		sort.Ints(mappers)
		reducers := make([]int, 0, len(reducerBytes))
		for r := range reducerBytes {
			reducers = append(reducers, r)
		}
		sort.Ints(reducers)
		var b strings.Builder
		fmt.Fprintf(&b, "%d %d %d", c.ID, int(c.Arrival*1000), len(mappers))
		for _, m := range mappers {
			fmt.Fprintf(&b, " %d", m)
		}
		fmt.Fprintf(&b, " %d", len(reducers))
		for _, r := range reducers {
			sizeMB := reducerBytes[r] / MB
			// The format splits a reducer's size across all mappers
			// and drops the rack-local pair; when this reducer rack
			// is itself a mapper, scale the written size up so a
			// re-parse reproduces the same network bytes.
			if mapperSet[r] && len(mappers) > 1 {
				sizeMB *= float64(len(mappers)) / float64(len(mappers)-1)
			}
			fmt.Fprintf(&b, " %d:%g", r, sizeMB)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// GenConfig parameterizes the synthetic generator. Zero fields take the
// defaults documented on each field, which approximate the published
// structure of the Facebook trace (150 racks, 526 coflows over one hour,
// heavy-tailed widths and sizes).
type GenConfig struct {
	// Racks is the number of rack endpoints. Default 150.
	Racks int
	// NumCoflows is the number of coflows to generate. Default 526.
	NumCoflows int
	// Duration is the arrival horizon in seconds (Poisson arrivals).
	// Default 3600.
	Duration float64
	// Seed makes generation deterministic.
	Seed int64

	// MapperLogMean/MapperLogStd parameterize the lognormal mapper count.
	// Defaults 1.2 and 1.3: median ~3 mappers, tail to all racks.
	MapperLogMean, MapperLogStd float64
	// ReducerLogMean/ReducerLogStd parameterize the lognormal reducer
	// count. Defaults 0.9 and 1.4.
	ReducerLogMean, ReducerLogStd float64
	// SizeLogMeanMB/SizeLogStdMB parameterize the lognormal per-reducer
	// size in MB. Defaults 1.8 and 1.9: median ~6 MB, tail to tens of GB.
	SizeLogMeanMB, SizeLogStdMB float64
}

func (c *GenConfig) setDefaults() error {
	if c.Racks == 0 {
		c.Racks = 150
	}
	if c.Racks < 2 {
		return fmt.Errorf("coflow: Racks=%d must be >= 2", c.Racks)
	}
	if c.NumCoflows == 0 {
		c.NumCoflows = 526
	}
	if c.NumCoflows < 0 {
		return fmt.Errorf("coflow: NumCoflows=%d must be positive", c.NumCoflows)
	}
	if c.Duration == 0 {
		c.Duration = 3600
	}
	if !(c.Duration > 0) || math.IsInf(c.Duration, 1) {
		return fmt.Errorf("coflow: Duration=%v must be positive and finite", c.Duration)
	}
	if c.MapperLogMean == 0 {
		c.MapperLogMean = 1.2
	}
	if c.MapperLogStd == 0 {
		c.MapperLogStd = 1.3
	}
	if c.ReducerLogMean == 0 {
		c.ReducerLogMean = 0.9
	}
	if c.ReducerLogStd == 0 {
		c.ReducerLogStd = 1.4
	}
	if c.SizeLogMeanMB == 0 {
		c.SizeLogMeanMB = 1.8
	}
	if c.SizeLogStdMB == 0 {
		c.SizeLogStdMB = 1.9
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"MapperLogMean", c.MapperLogMean}, {"MapperLogStd", c.MapperLogStd},
		{"ReducerLogMean", c.ReducerLogMean}, {"ReducerLogStd", c.ReducerLogStd},
		{"SizeLogMeanMB", c.SizeLogMeanMB}, {"SizeLogStdMB", c.SizeLogStdMB},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("coflow: %s=%v must be finite", p.name, p.v)
		}
	}
	return nil
}

// Generate produces a synthetic trace with the configured marginals:
// lognormal mapper/reducer counts (clipped to the rack count), lognormal
// per-reducer bytes split across mappers, uniform rack placement without
// replacement, and uniform arrivals over the duration (a Poisson process
// conditioned on the count).
func Generate(cfg GenConfig) (*Trace, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{NumRacks: cfg.Racks, Coflows: make([]Coflow, cfg.NumCoflows)}
	// lognormInt clips in floating point: a draw past the int range is the
	// rack count, not whatever converting it would give.
	lognormInt := func(mu, sigma float64, max int) int {
		v := math.Round(math.Exp(rng.NormFloat64()*sigma + mu))
		if v >= float64(max) {
			return max
		}
		if v < 1 {
			return 1
		}
		return int(v)
	}
	perm, permuter := make([]int, 2*cfg.Racks), newPermuter(rng, cfg.Racks)
	checkSize := func(bytes float64) error {
		if !(bytes > 0) || math.IsInf(bytes, 1) {
			return fmt.Errorf("coflow: SizeLogMeanMB=%v, SizeLogStdMB=%v drew a %v-byte flow; sizes must be positive and finite",
				cfg.SizeLogMeanMB, cfg.SizeLogStdMB, bytes)
		}
		return nil
	}
	for i := range tr.Coflows {
		m := lognormInt(cfg.MapperLogMean, cfg.MapperLogStd, cfg.Racks)
		r := lognormInt(cfg.ReducerLogMean, cfg.ReducerLogStd, cfg.Racks)
		// Reducers drawn independently of mappers (rack-local pairs
		// are dropped, as in Parse).
		mappers, reducers := perm[:cfg.Racks], perm[cfg.Racks:]
		permuter.perm(mappers)
		permuter.perm(reducers)
		mappers, reducers = mappers[:m], reducers[:r]
		c := &tr.Coflows[i]
		*c = Coflow{ID: i, Arrival: rng.Float64() * cfg.Duration, Flows: make([]Flow, 0, m*r)}
		for _, red := range reducers {
			sizeMB := math.Exp(rng.NormFloat64()*cfg.SizeLogStdMB + cfg.SizeLogMeanMB)
			per := sizeMB * MB / float64(m)
			n := len(c.Flows)
			for _, src := range mappers {
				if src == red {
					continue
				}
				c.Flows = append(c.Flows, Flow{Src: src, Dst: red, Bytes: per})
			}
			if len(c.Flows) > n {
				if err := checkSize(per); err != nil {
					return nil, err
				}
			}
		}
		if len(c.Flows) == 0 {
			// Degenerate single-rack coflow; synthesize one flow so
			// every coflow is observable on the network.
			dst := (mappers[0] + 1) % cfg.Racks
			bytes := math.Exp(rng.NormFloat64()*cfg.SizeLogStdMB+cfg.SizeLogMeanMB) * MB
			if err := checkSize(bytes); err != nil {
				return nil, err
			}
			c.Flows = append(c.Flows, Flow{Src: mappers[0], Dst: dst, Bytes: bytes})
		}
	}
	slices.SortStableFunc(tr.Coflows, func(a, b Coflow) int { return cmp.Compare(a.Arrival, b.Arrival) })
	return tr, nil
}

// permuter draws rand.Perm's permutations into a caller's buffer: for each
// i < len(p), j = rng.Intn(i+1), p[i] = p[j], p[j] = i, with Intn's draws
// and results exactly (for lengths below 2^31, Intn's 31-bit branch), so a
// trace is the one rand.Perm would give. Intn(n) redraws v above 2^31 - 1 -
// (2^31 mod n), a bound no lower than 2^31 - n, so only a draw past that
// pays for the bound's division; and v % n is Lemire's remainder by
// multiplication, exact for 32-bit v and n, with recip[n] = ceil(2^64 / n)
// mod 2^64.
type permuter struct {
	rng   *rand.Rand
	recip []uint64
}

func newPermuter(rng *rand.Rand, maxLen int) permuter {
	recip := make([]uint64, maxLen+1)
	for n := 1; n <= maxLen; n++ {
		recip[n] = ^uint64(0)/uint64(n) + 1
	}
	return permuter{rng: rng, recip: recip}
}

func (q permuter) perm(p []int) {
	for i := range p {
		n := int32(i + 1)
		v := int32(q.rng.Int63() >> 32)
		if v > math.MaxInt32-n {
			max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
			for v > max {
				v = int32(q.rng.Int63() >> 32)
			}
		}
		j, _ := bits.Mul64(q.recip[n]*uint64(v), uint64(n))
		p[i] = p[j]
		p[j] = i
	}
}
