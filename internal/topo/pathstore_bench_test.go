package topo

import (
	"math/rand"
	"testing"
)

// stormPairs is the benchmark's sim-storm lookup mix on a k fat-tree with per
// hosts under every edge switch: flowsPerHost lookups per source host, 85 %
// to another host of its rack, 15 % to a host of another rack in its pod.
func stormPairs(k, per, flowsPerHost int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	perPod := k / 2 * per
	n := k * perPod
	pairs := make([][2]int, 0, n*flowsPerHost)
	for i := 0; i < n*flowsPerHost; i++ {
		src := i % n
		var dst int
		if rng.Float64() < 0.85 {
			base := src / per * per
			for dst = base + rng.Intn(per); dst == src; {
				dst = base + rng.Intn(per)
			}
		} else {
			dst = podLocalPeer(rng, src, per, perPod)
		}
		pairs = append(pairs, [2]int{src, dst})
	}
	return pairs
}

// podLocalPeer draws a host of src's pod under another edge switch.
func podLocalPeer(rng *rand.Rand, src, per, perPod int) int {
	base := src / perPod * perPod
	for {
		if dst := base + rng.Intn(perPod); dst/per != src/per {
			return dst
		}
	}
}

// BenchmarkPathStoreStormSchedule is the cold cost sim-storm's set-up pays
// per instance: build the k=32, 4-hosts-per-edge fabric and intern the
// schedule's 40 960 lookups through a fresh store.
func BenchmarkPathStoreStormSchedule(b *testing.B) {
	pairs := stormPairs(32, 4, 20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft, err := NewFatTree(Config{K: 32, HostsPerEdge: 4, HostCapacity: 40})
		if err != nil {
			b.Fatal(err)
		}
		ps := ft.PathStore()
		for _, p := range pairs {
			if _, err := ps.Paths(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var warmSink Path

// BenchmarkPathStoreWarm is the lookup cost after interning, over 4 096
// pod-local pairs of the k=32 fabric: Paths on fully built pairs, Select on
// pairs that hold only the selected path (a failure study's state).
func BenchmarkPathStoreWarm(b *testing.B) {
	const per, perPod = 4, 16 * 4
	ft, err := NewFatTree(Config{K: 32, HostsPerEdge: per})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		src := rng.Intn(ft.NumHosts())
		pairs[i] = [2]int{src, podLocalPeer(rng, src, per, perPod)}
	}
	b.Run("Paths", func(b *testing.B) {
		ps := NewPathStore(ft)
		for _, p := range pairs {
			if _, err := ps.Paths(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i&4095]
			paths, _ := ps.Paths(p[0], p[1])
			warmSink = paths[0]
		}
	})
	b.Run("Select", func(b *testing.B) {
		ps := NewPathStore(ft)
		for i, p := range pairs {
			if _, err := ps.Select(p[0], p[1], uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i&4095]
			warmSink, _ = ps.Select(p[0], p[1], uint64(i&4095))
		}
	})
}
