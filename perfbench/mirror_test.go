package main

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
)

func TestMirrorAppliesAckedWritesInOrder(t *testing.T) {
	base := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	m := newMirror(base)
	m.ack(true, []graph.Edge{{U: 1, V: 0}})  // remove, named reversed
	m.ack(false, []graph.Edge{{U: 2, V: 3}}) // insert a new edge
	m.ack(false, []graph.Edge{{U: 3, V: 3}}) // self-loop: ignored
	m.ack(true, []graph.Edge{{U: 2, V: 3}})  // …and remove it again
	m.ack(false, []graph.Edge{{U: 0, V: 3}})

	g := m.graph()
	want := map[graph.Edge]bool{{U: 1, V: 2}: true, {U: 0, V: 3}: true}
	if int(g.M()) != len(want) {
		t.Fatalf("m = %d, want %d (%v)", g.M(), len(want), g.Edges())
	}
	for e := range want {
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("missing %v", e)
		}
	}
	if !base.HasEdge(0, 1) || base.HasEdge(0, 3) {
		t.Fatal("materializing the mirror changed the base graph")
	}
}

// TestChurnStaysValid replays the churn stream on a live set: every
// remove must name present edges and every insert absent ones, and
// never more than lead chunks may be absent.
func TestChurnStaysValid(t *testing.T) {
	g := gen.PowerLawCluster(2000, 8, 2.4, 1)
	const size, chunks, lead = 4, 50, 8
	ch := newChurn(gen.SampleEdges(g, size*chunks+3, 2), size, lead)
	if len(ch.chunks) != chunks {
		t.Fatalf("%d chunks, want %d (short tail dropped)", len(ch.chunks), chunks)
	}
	present := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		present[e.Norm()] = true
	}
	absent := 0
	for k := 0; k < 10*chunks; k++ {
		remove, edges := ch.op(k)
		for _, e := range edges {
			if present[e.Norm()] != remove {
				t.Fatalf("op %d (remove=%v) names %v, present=%v", k, remove, e, present[e.Norm()])
			}
			present[e.Norm()] = !remove
		}
		if remove {
			absent++
		} else {
			absent--
		}
		if absent > lead {
			t.Fatalf("op %d: %d chunks absent, lead is %d", k, absent, lead)
		}
	}
}

// TestMirrorOracle: the oracle the served workloads compare against is
// bz.Decompose of the mirror, equal to decomposing the replayed graph.
func TestMirrorOracle(t *testing.T) {
	g := gen.PowerLawCluster(2000, 8, 2.4, 3)
	ch := newChurn(gen.SampleEdges(g, 4*40, 4), 4, 5)
	m := newMirror(g)
	replay := g.Clone()
	for k := 0; k < 25; k++ {
		remove, edges := ch.op(k)
		m.ack(remove, edges)
		for _, e := range edges {
			if remove {
				replay.RemoveEdge(e.U, e.V)
			} else {
				replay.AddEdge(e.U, e.V)
			}
		}
	}
	got, _ := bz.Decompose(m.graph())
	want, _ := bz.Decompose(replay)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}
