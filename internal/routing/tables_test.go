package routing

import (
	"testing"

	"sharebackup/internal/topo"
)

func TestAddrConstruction(t *testing.T) {
	h, err := HostAddr(4, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h != (Addr{10, 1, 0, 3}) {
		t.Errorf("HostAddr = %v", h)
	}
	if h.String() != "10.1.0.3" {
		t.Errorf("String = %q", h.String())
	}
}

func TestAddrValidation(t *testing.T) {
	if _, err := HostAddr(4, 4, 0, 0); err == nil {
		t.Error("pod out of range accepted")
	}
	if _, err := HostAddr(4, 0, 2, 0); err == nil {
		t.Error("edge out of range accepted")
	}
	if _, err := HostAddr(4, 0, 0, 2); err == nil {
		t.Error("position out of range accepted")
	}
	if _, err := HostAddr(3, 0, 0, 0); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := HostAddr(256, 0, 0, 0); err == nil {
		t.Error("unaddressable k accepted")
	}
}

func TestTableLookupPrecedence(t *testing.T) {
	tb := Table{
		Prefixes: []PrefixEntry{
			{Pod: 1, Sub: 0, Port: 7},
			{Pod: 1, Sub: -1, Port: 8},
		},
		Suffixes: []SuffixEntry{{HostByte: 2, Port: 9}},
	}
	if p, ok := tb.Lookup(Addr{10, 1, 0, 2}); !ok || p != 7 {
		t.Errorf("/24 match = %v, %v; want 7", p, ok)
	}
	if p, ok := tb.Lookup(Addr{10, 1, 1, 2}); !ok || p != 8 {
		t.Errorf("/16 match = %v, %v; want 8", p, ok)
	}
	if p, ok := tb.Lookup(Addr{10, 2, 1, 2}); !ok || p != 9 {
		t.Errorf("suffix match = %v, %v; want 9", p, ok)
	}
	if _, ok := tb.Lookup(Addr{10, 2, 1, 5}); ok {
		t.Error("unmatched address resolved")
	}
}

func TestEdgeTableShape(t *testing.T) {
	in, out, err := BuildEdgeTable(8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Size() != 4 || out.Size() != 4 {
		t.Errorf("edge table sizes = %d, %d; want k/2 each", in.Size(), out.Size())
	}
	// In-bound entries deliver host byte 2+h to down-port h.
	for h := 0; h < 4; h++ {
		p, ok := in.Lookup(Addr{10, 5, 3, uint8(2 + h)})
		if !ok || int(p) != h {
			t.Errorf("inbound host %d -> port %v", h, p)
		}
	}
	// Out-bound entries use up-ports [k/2, k), phase-shifted by j.
	for h := 0; h < 4; h++ {
		p, ok := out.Lookup(Addr{10, 5, 3, uint8(2 + h)})
		if !ok || int(p) != 4+(h+1)%4 {
			t.Errorf("outbound host %d -> port %v, want %d", h, p, 4+(h+1)%4)
		}
	}
	// In-bound tables are identical across the pod's edges; out-bound
	// tables differ (Section 4.3).
	in2, out2, err := BuildEdgeTable(8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Suffixes {
		if in.Suffixes[i] != in2.Suffixes[i] {
			t.Error("inbound tables differ across edges in a pod")
		}
	}
	same := true
	for i := range out.Suffixes {
		if out.Suffixes[i] != out2.Suffixes[i] {
			same = false
		}
	}
	if same {
		t.Error("outbound tables identical across edges; load spreading lost")
	}
}

func TestAggAndCoreTables(t *testing.T) {
	at, err := BuildAggTable(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if at.Size() != 8 { // k/2 prefixes + k/2 suffixes
		t.Errorf("agg table size = %d, want k", at.Size())
	}
	// In-pod traffic goes down to the right edge.
	for e := 0; e < 4; e++ {
		p, ok := at.Lookup(Addr{10, 3, uint8(e), 2})
		if !ok || int(p) != e {
			t.Errorf("agg in-pod lookup edge %d -> %v", e, p)
		}
	}
	// Out-of-pod traffic goes up.
	p, ok := at.Lookup(Addr{10, 5, 0, 3})
	if !ok || int(p) < 4 {
		t.Errorf("agg out-of-pod lookup -> %v, want an up-port", p)
	}

	ct, err := BuildCoreTable(8)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Size() != 8 {
		t.Errorf("core table size = %d, want k", ct.Size())
	}
	for pod := 0; pod < 8; pod++ {
		p, ok := ct.Lookup(Addr{10, uint8(pod), 1, 2})
		if !ok || int(p) != pod {
			t.Errorf("core lookup pod %d -> %v", pod, p)
		}
	}
}

func TestVLANTableSize(t *testing.T) {
	// Section 4.3: the combined table has k/2 in-bound and k^2/4 out-bound
	// entries; 1056 total for k=64.
	for _, tc := range []struct{ k, want int }{
		{4, 2 + 4},
		{8, 4 + 16},
		{16, 8 + 64},
		{64, 32 + 1024}, // = 1056
	} {
		vt, err := BuildVLANTable(tc.k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := vt.Size(); got != tc.want {
			t.Errorf("k=%d: combined table size = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestVLANTableLookup(t *testing.T) {
	vt, err := BuildVLANTable(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dstOther := Addr{10, 2, 0, 2} // host in another pod
	// Tagged packets from edge 0's hosts use edge 0's out-bound entries.
	p0, ok := vt.Lookup(0, dstOther)
	if !ok || int(p0) < 2 {
		t.Fatalf("vlan 0 lookup = %v, %v", p0, ok)
	}
	p1, ok := vt.Lookup(1, dstOther)
	if !ok {
		t.Fatal("vlan 1 lookup failed")
	}
	if p0 == p1 {
		t.Error("different VLANs chose the same up-port; per-edge spreading lost")
	}
	// Untagged (in-bound) packets are delivered to host ports.
	pin, ok := vt.Lookup(Untagged, Addr{10, 1, 0, 3})
	if !ok || int(pin) != 1 {
		t.Errorf("untagged lookup = %v, want host port 1", pin)
	}
	// Same-subnet tagged traffic is delivered locally, not bounced up.
	ploc, ok := vt.Lookup(0, Addr{10, 1, 0, 2})
	if !ok || int(ploc) != 0 {
		t.Errorf("local tagged lookup = %v, want host port 0", ploc)
	}
	if _, ok := vt.Lookup(99, dstOther); ok {
		t.Error("unknown VLAN resolved")
	}
}

func TestDataPlaneDeliversAllPairs(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := newDataPlane(ft)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < ft.NumHosts(); src++ {
		for dst := 0; dst < ft.NumHosts(); dst++ {
			if src == dst {
				continue
			}
			walk, err := dp.deliver(src, dst)
			if err != nil {
				t.Fatalf("Deliver(%d, %d): %v (walk %v)", src, dst, err, walk)
			}
			// Walk length: same edge 3, same pod 5, inter-pod 7 nodes.
			srcE, dstE := ft.EdgeOfHost(src), ft.EdgeOfHost(dst)
			want := 7
			if srcE == dstE {
				want = 3
			} else if ft.Node(srcE).Pod == ft.Node(dstE).Pod {
				want = 5
			}
			if len(walk) != want {
				t.Errorf("Deliver(%d, %d): walk %v has %d nodes, want %d", src, dst, walk, len(walk), want)
			}
		}
	}
}

func TestDataPlaneABFatTree(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 4, AB: true})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := newDataPlane(ft)
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []int{1, 2, 5, 9, 15} {
		if _, err := dp.deliver(0, dst); err != nil {
			t.Errorf("AB Deliver(0, %d): %v", dst, err)
		}
	}
}

func TestDataPlaneRackLevel(t *testing.T) {
	ft, err := topo.NewFatTree(topo.Config{K: 8, HostsPerEdge: 1, HostCapacity: 40})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := newDataPlane(ft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.deliver(0, ft.NumHosts()-1); err != nil {
		t.Fatal(err)
	}
	// Too many hosts per edge cannot be addressed.
	big, err := topo.NewFatTree(topo.Config{K: 4, HostsPerEdge: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newDataPlane(big); err == nil {
		t.Error("unaddressable host density accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, _, err := BuildEdgeTable(4, 4, 0); err == nil {
		t.Error("edge table pod out of range accepted")
	}
	if _, _, err := BuildEdgeTable(4, 0, 2); err == nil {
		t.Error("edge table j out of range accepted")
	}
	if _, err := BuildAggTable(4, -1); err == nil {
		t.Error("agg table pod out of range accepted")
	}
	if _, err := BuildCoreTable(3); err == nil {
		t.Error("odd k core table accepted")
	}
	if _, err := BuildVLANTable(4, 9); err == nil {
		t.Error("vlan table pod out of range accepted")
	}
}
