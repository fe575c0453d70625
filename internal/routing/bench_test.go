package routing_test

import (
	"testing"

	"ripple/internal/network"
	"ripple/internal/pkt"
	"ripple/internal/routing"
	"ripple/internal/topology"
)

// BenchmarkShortestPath is the pprof entry point for route resolution: one
// op is one early-exit Dijkstra and the path it returns, a route of five
// hops on the clean link table of the 2000-station city (200 under -short),
// the table its root world routes on. An op allocates the path alone: the
// per-station arrays and the heap are a reused workspace.
// Numbers for a performance claim come from bench/, not from here.
func BenchmarkShortestPath(b *testing.B) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	top, _ := topology.CityN(n, 3)
	table, err := network.LinkTable(topology.CityRadio(), top.Positions)
	if err != nil {
		b.Fatal(err)
	}
	const src, hops = 0, 5
	dst := pkt.NodeID(-1)
	for d := pkt.NodeID(1); int(d) < n && dst < 0; d++ {
		if p, err := table.ShortestPath(src, d); err == nil && len(p) == hops+1 {
			dst = d
		}
	}
	if dst < 0 {
		b.Fatalf("no station %d hops from station %d", hops, src)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if pathSink, err = table.ShortestPath(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// pathSink keeps BenchmarkShortestPath's routes observable.
var pathSink routing.Path
