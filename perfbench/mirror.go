package main

import "repro/graph"

// mirror is the client's record of acknowledged writes over a base
// graph: the edge set the server must hold once every acked write is
// applied, in ack order. Only acks reach it, so a write the server
// refused or never answered leaves it unchanged.
type mirror struct {
	base  *graph.Graph
	state map[graph.Edge]bool // canonical edge → present after its last acked write
}

func newMirror(base *graph.Graph) *mirror {
	return &mirror{base: base, state: make(map[graph.Edge]bool)}
}

// ack records an acknowledged CORE.INSERT (remove false) or CORE.REMOVE
// (remove true) of edges.
func (m *mirror) ack(remove bool, edges []graph.Edge) {
	for _, e := range edges {
		if e.U == e.V {
			continue // the server skips self-loops
		}
		m.state[e.Norm()] = !remove
	}
}

// graph materializes the expected graph: a copy of the base with every
// acked write applied. The base is left untouched.
func (m *mirror) graph() *graph.Graph {
	g := m.base.Clone()
	for e, present := range m.state {
		if present {
			g.AddEdge(e.U, e.V)
		} else {
			g.RemoveEdge(e.U, e.V)
		}
	}
	return g
}

// churn is the served workloads' write stream: chunks of real graph
// edges that are removed and later inserted back, so core numbers
// really move while the graph stays near its initial shape. The first
// lead ops remove chunks 0..lead-1; after that inserts and removes
// alternate, each insert restoring the oldest removed chunk and each
// remove taking out the next present one. At most lead chunks are
// absent at once, so with lead < len(chunks) every remove names present
// edges and every insert absent ones.
type churn struct {
	chunks [][]graph.Edge
	lead   int
}

// newChurn cuts pool into chunks of size edges each (a short tail is
// dropped).
func newChurn(pool []graph.Edge, size, lead int) churn {
	var c churn
	for i := 0; i+size <= len(pool); i += size {
		c.chunks = append(c.chunks, pool[i:i+size])
	}
	c.lead = lead
	return c
}

// op returns the k-th write of the stream.
func (c churn) op(k int) (remove bool, edges []graph.Edge) {
	n := len(c.chunks)
	if k < c.lead {
		return true, c.chunks[k%n]
	}
	j := k - c.lead
	if j%2 == 0 {
		return false, c.chunks[(j/2)%n]
	}
	return true, c.chunks[(c.lead+j/2)%n]
}
