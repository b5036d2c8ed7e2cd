package pcore

import (
	"sync"

	"repro/graph"
	"repro/internal/core"
)

// InsertEdges inserts a batch of edges with the Parallel-Order insertion
// algorithm using `workers` goroutines (Algorithm 5: the batch is
// partitioned statically and each worker processes its share one edge at a
// time, no preprocessing). It returns per-edge statistics aligned with
// edges; stats[i].VPlus feeds the Fig. 1 histogram.
//
// Callers must not run InsertEdges and RemoveEdges concurrently on one
// State — the paper's algorithms assume insertion and removal phases never
// overlap (§4), and the kcore façade enforces it.
func InsertEdges(st *core.State, edges []graph.Edge, workers int) []core.InsertStats {
	stats, _ := InsertEdgesMetered(st, edges, workers, nil)
	return stats
}

// InsertEdgesMetered is InsertEdges with contention counters: when m is
// non-nil, the workers record lock aborts, queue rebuilds, evictions and
// promotions into it.
func InsertEdgesMetered(st *core.State, edges []graph.Edge, workers int, m *Metrics) ([]core.InsertStats, MetricsSnapshot) {
	if workers < 1 {
		workers = 1
	}
	if m == nil {
		m = &Metrics{}
	}
	stats := make([]core.InsertStats, len(edges))
	moved := make([][]int32, workers)
	var wg sync.WaitGroup
	for pi := 0; pi < workers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			w := &insertWorker{st: st, m: m}
			for i := pi; i < len(edges); i += workers {
				stats[i] = w.insertEdge(edges[i].U, edges[i].V)
			}
			moved[pi] = w.moved
		}(pi)
	}
	wg.Wait()
	recomputeDout(st, crossWorkerEndpoints(st, moved), workers)
	return stats, m.Snapshot()
}

// RemoveEdges removes a batch of edges with the Parallel-Order removal
// algorithm using `workers` goroutines. It returns per-edge statistics
// aligned with edges.
func RemoveEdges(st *core.State, edges []graph.Edge, workers int) []core.RemoveStats {
	stats, _ := RemoveEdgesMetered(st, edges, workers, nil)
	return stats
}

// RemoveEdgesMetered is RemoveEdges with contention counters.
func RemoveEdgesMetered(st *core.State, edges []graph.Edge, workers int, m *Metrics) ([]core.RemoveStats, MetricsSnapshot) {
	if workers < 1 {
		workers = 1
	}
	if m == nil {
		m = &Metrics{}
	}
	stats := make([]core.RemoveStats, len(edges))
	var wg sync.WaitGroup
	for pi := 0; pi < workers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			w := &removeWorker{st: st, m: m}
			for i := pi; i < len(edges); i += workers {
				stats[i] = w.removeEdge(edges[i].U, edges[i].V)
			}
		}(pi)
	}
	wg.Wait()
	// Each dropped vertex changed list and position; its neighbors'
	// flips were applied at drop time, so only its own d⁺out is left,
	// recomputed from the settled order as RemoveEdgeSeq does per edge.
	var dropped []int32
	for _, s := range stats {
		dropped = append(dropped, s.Changed...)
	}
	recomputeDout(st, dropped, workers)
	return stats, m.Snapshot()
}

// crossWorkerEndpoints returns the vertices whose d⁺out no single
// insertion worker fully observed: both endpoints of every edge whose two
// endpoints were both moved during the batch (promoted into O_{k+1} or
// evicted within O_k) by different workers, or with one of them moved by
// more than one worker. Every other edge had at most one endpoint in
// motion, or both moved by one worker holding both locks, and Algorithm 7
// keeps its orientation exact at move time. For the edges returned here
// the final orientation follows from how two workers' moves interleaved;
// the conditional locks should order them consistently, but no worker saw
// both moves, so these are recomputed rather than trusted. moved[p] lists
// the vertices worker p moved; with fewer than two non-empty lists the
// result is empty. Cost and scratch are proportional to the moved set and
// its adjacency, never to n.
func crossWorkerEndpoints(st *core.State, moved [][]int32) []int32 {
	movers := 0
	for _, vs := range moved {
		if len(vs) > 0 {
			movers++
		}
	}
	if movers < 2 {
		return nil
	}
	const many = -1 // moved by more than one worker
	owner := map[int32]int{}
	for p, vs := range moved {
		for _, v := range vs {
			if o, ok := owner[v]; ok && o != p {
				owner[v] = many
			} else {
				owner[v] = p
			}
		}
	}
	// The relation is symmetric, so listing v alone covers both
	// endpoints: x is listed when its own entry is scanned.
	var out []int32
	for v, ov := range owner {
		for _, x := range st.G.Adj(v) {
			if ox, ok := owner[x]; ok && (ox != ov || ov == many) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// recomputeDout recomputes d⁺out from the settled k-order for every vertex
// in vs, in parallel, once every worker has quiesced. A repeated vertex (a
// removal batch can drop one twice) just stores the same value again.
func recomputeDout(st *core.State, vs []int32, workers int) {
	if len(vs) == 0 {
		return
	}
	var wg sync.WaitGroup
	for pi := 0; pi < workers; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			for i := pi; i < len(vs); i += workers {
				st.RecomputeDout(vs[i])
			}
		}(pi)
	}
	wg.Wait()
}
