package pcore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/gen"
	"repro/internal/core"
)

// TestPowerLawDoutInvariants drives remove-then-insert round trips of a
// 3,000-edge batch through a power-law graph, where adjacent vertices often
// both move within one batch, so the drop-time d⁺out flips and the
// batch-end recomputations are exercised far beyond what the small ER
// tests reach. At one worker the batch must move thousands of vertices; at
// two and four workers the insertion side also reaches the cross-worker
// repair.
func TestPowerLawDoutInvariants(t *testing.T) {
	g := gen.PowerLawCluster(4000, 10, 2.4, 11)
	batch := gen.SampleEdges(g, 3000, 12)
	for _, workers := range []int{1, 2, 4} {
		st := core.NewState(g.Clone())
		for round := 0; round < 2; round++ {
			var rm, im Metrics
			_, rs := RemoveEdgesMetered(st, batch, workers, &rm)
			mustCheck(t, st, fmt.Sprintf("%d workers, round %d, remove", workers, round))
			_, is := InsertEdgesMetered(st, batch, workers, &im)
			mustCheck(t, st, fmt.Sprintf("%d workers, round %d, insert", workers, round))
			if workers == 1 && (rs.Drops < int64(len(batch))/2 || is.Promotions < int64(len(batch))/2 || is.Evictions == 0) {
				t.Fatalf("round %d moved too little to exercise d⁺out: remove %+v, insert %+v", round, rs, is)
			}
		}
	}
}

// TestSmallBatchAllocsIndependentOfN pins the served-write cost model: a
// 4-edge batch must not allocate in proportion to the vertex count. The
// batch's work is held fixed by confining it to one 2,000-vertex component;
// only the number of isolated vertices around it changes.
func TestSmallBatchAllocsIndependentOfN(t *testing.T) {
	component := gen.ErdosRenyi(2000, 8000, 21)
	batch := gen.SampleNonEdges(component, 4, 22)
	perRound := func(n int) uint64 {
		g := component.Clone()
		g.Grow(n)
		st := core.NewState(g)
		round := func() {
			InsertEdges(st, batch, 2)
			RemoveEdges(st, batch, 2)
		}
		round() // warm up lazily grown lists and scratch
		const rounds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		mustCheck(t, st, "after rounds")
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	small, large := perRound(2000), perRound(200000)
	// A per-batch n-sized scratch slice would add ≥ 200 KB at n = 200k.
	const slack = 32 << 10
	if large > small+slack {
		t.Fatalf("4-edge insert+remove allocates %d B/round at n=200000 vs %d B/round at n=2000", large, small)
	}
	t.Logf("bytes per round: n=2000 %d, n=200000 %d", small, large)
}
