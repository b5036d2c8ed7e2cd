package main

import (
	"repro/gen"
	"repro/graph"
)

// The shared input: the livej stand-in of the paper's experiments, a
// heavy-tailed graph of 200k vertices and about 1.4M edges. Like the
// paper's dataset it is one fixed graph, generated from graphSeed; the
// workload seed picks what runs on it (the batch, the churn, the read
// keys). Graphs of other generator seeds differ in max core (36 to 60),
// and burst's removal rate with it by up to 2.5x, which would swamp any
// change to the code.
const (
	graphN        = 200_000
	graphAvgDeg   = 14.2
	graphExponent = 2.4
	graphSeed     = 1

	burstEdges = 100_000 // the paper's batch size
	// burstSetups is how many set-ups a burst run makes; setup_s is
	// their median. Each takes about 0.15 s, short enough for host noise
	// to move single figures by a fifth.
	burstSetups = 11
)

func inputGraph() *graph.Graph {
	return gen.PowerLawCluster(graphN, graphAvgDeg, graphExponent, graphSeed)
}

// mix returns a well-spread 64-bit hash of (seed, i, j) — SplitMix64's
// finalizer — so request i's j-th vertex id is a pure function of the
// seed and the request, with no generator state shared between the
// sender and anything else.
func mix(seed int64, i, j int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(j)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// vertexAt picks request i's j-th vertex id uniformly from [0, n).
func vertexAt(seed int64, i, j, n int) int32 {
	return int32(mix(seed, i, j) % uint64(n))
}
