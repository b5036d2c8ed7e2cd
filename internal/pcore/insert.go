package pcore

import (
	"repro/internal/core"
	"repro/internal/om"
	"repro/internal/spin"
)

// insertWorker executes InsertEdge_p (Algorithm 7) for one worker p. All
// scratch state (V*, V+, Q_p, R_p) is private; shared state is reached
// through st under the locking protocol.
type insertWorker struct {
	st *core.State
	m  *Metrics
	// moved lists every vertex this worker repositioned in the batch
	// (promoted into O_{k+1} or evicted within O_k). Algorithm 7 keeps
	// d⁺out exact at move time for every edge it can see; the batch end
	// uses these lists only to find edges whose endpoints were moved by
	// different workers (see crossWorkerEndpoints).
	moved []int32

	// per-edge scratch, reset by insertEdge
	k      int32
	q      *pqueue
	vstar  []int32
	inStar map[int32]bool
	done   map[int32]bool
	vplus  int
}

func (p *insertWorker) own(v int32) bool { return p.inStar[v] || p.done[v] }

// insertEdge inserts one edge and restores the maintenance invariants,
// locking only the traversed vertices in V+ (Algorithm 7).
func (p *insertWorker) insertEdge(u, v int32) core.InsertStats {
	st := p.st
	if u == v {
		return core.InsertStats{}
	}
	// Lock both endpoints together (line 1); with both held their k-order
	// is frozen, so orienting the edge by one comparison replaces the
	// paper's unlock-and-retry loop (line 2).
	spin.LockPair(&st.Locks[u], &st.Locks[v])
	if st.Before(v, u) {
		u, v = v, u
	}
	if traceFn != nil {
		traceFn("p=%p origin (%d->%d) locked", p, u, v)
	}
	if !st.G.AddEdge(u, v) {
		// Duplicate (possibly inserted concurrently by another worker
		// earlier in the batch): nothing to do.
		st.Locks[u].Unlock()
		st.Locks[v].Unlock()
		return core.InsertStats{}
	}
	k := st.Core[u].Load()
	st.Dout[u].Add(1)
	st.Mcd[u].Store(core.McdEmpty)
	st.Mcd[v].Store(core.McdEmpty)
	st.Locks[v].Unlock() // line 5
	if st.Dout[u].Load() <= k {
		st.Locks[u].Unlock() // line 6
		return core.InsertStats{Applied: true}
	}

	p.k = k
	p.q = newPQueue(st, k)
	p.q.m = p.m
	p.vstar = p.vstar[:0]
	p.inStar = map[int32]bool{}
	p.done = map[int32]bool{}
	p.vplus = 0

	w := u
	for {
		// d*in(w) = |{x ∈ pre(w) : x ∈ V*}| (line 9). V* members are
		// locked by us, w is locked by us: the comparison is stable.
		din := int32(0)
		for _, x := range st.G.Adj(w) {
			if p.inStar[x] && st.Before(x, w) {
				din++
			}
		}
		st.Din[w] = din
		if traceFn != nil {
			traceFn("p=%p process %d din=%d dout=%d k=%d", p, w, din, st.Dout[w].Load(), k)
		}
		switch {
		case din+st.Dout[w].Load() > k:
			p.forward(w) // line 10; w stays locked
		case din > 0:
			p.backward(w) // line 11; w stays locked (member of V+)
		default:
			st.Locks[w].Unlock() // line 11: w ∉ V+
		}
		next, ok := p.q.dequeue(p.own) // line 12: returns w locked
		if !ok {
			break
		}
		w = next
	}
	p.commit()
	// p.vstar is reused scratch; the surviving candidates are copied out
	// so the changed set stays valid after the next edge resets it.
	stats := core.InsertStats{Applied: true, VPlus: p.vplus}
	for _, w := range p.vstar {
		if p.inStar[w] {
			stats.Changed = append(stats.Changed, w)
		}
	}
	stats.VStar = len(stats.Changed)
	return stats
}

// forward adds the locked vertex w to V* and schedules its same-core
// successors (Algorithm 7 lines 18-21). Successors are examined without
// locking them — only V+ is locked.
func (p *insertWorker) forward(w int32) {
	st := p.st
	p.vstar = append(p.vstar, w)
	p.inStar[w] = true
	p.vplus++
	if traceFn != nil {
		traceFn("p=%p forward %d (k=%d)", p, w, p.k)
	}
	for _, x := range st.G.Adj(w) {
		if st.Core[x].Load() == p.k && !p.q.contains(x) && !p.inStar[x] && !p.done[x] && st.Before(w, x) {
			if traceFn != nil {
				traceFn("p=%p   enqueue %d", p, x)
			}
			p.q.enqueue(x)
		}
	}
}

// backward confirms the locked w as a non-candidate and evicts every V*
// member whose potential degree fell to k, moving evicted vertices after the
// advancing anchor `pre` inside O_k (Algorithm 7 lines 22-31). All touched
// vertices are members of V+ and therefore already locked by this worker.
// d⁺out is settled here, at move time: w and each evicted vertex gain their
// d*in (the V* predecessors that will be promoted past them), and doPre
// takes the matching out-edge from those predecessors.
func (p *insertWorker) backward(w int32) {
	st := p.st
	list := st.List(p.k)
	p.vplus++
	p.done[w] = true
	if traceFn != nil {
		traceFn("p=%p backward %d (k=%d)", p, w, p.k)
	}
	pre := w
	var rq []int32
	inR := map[int32]bool{}
	p.doPre(w, &rq, inR)
	st.Dout[w].Add(st.Din[w])
	st.Din[w] = 0
	for len(rq) > 0 {
		u := rq[0]
		rq = rq[1:]
		delete(p.inStar, u)
		p.done[u] = true
		p.doPre(u, &rq, inR)
		p.doPost(u, &rq, inR)
		if traceFn != nil {
			traceFn("p=%p   evict %d after %d", p, u, pre)
		}
		st.BeginOrderChange(u)
		list.Delete(st.Items[u])
		list.InsertAfter(st.Items[pre], st.Items[u])
		st.EndOrderChange(u)
		p.moved = append(p.moved, u)
		if p.m != nil {
			p.m.Evictions.Add(1)
		}
		pre = u
		st.Dout[u].Add(st.Din[u])
		st.Din[u] = 0
	}
}

// doPre: u is confirmed outside V*; its V* predecessors lose one remaining
// out-degree (Algorithm 7 lines 32-35).
func (p *insertWorker) doPre(u int32, rq *[]int32, inR map[int32]bool) {
	st := p.st
	for _, x := range st.G.Adj(u) {
		if p.inStar[x] && st.Before(x, u) {
			st.Dout[x].Add(-1)
			if st.Din[x]+st.Dout[x].Load() <= p.k && !inR[x] {
				inR[x] = true
				*rq = append(*rq, x)
			}
		}
	}
}

// doPost: u left V*; its V* successors lose one candidate in-degree
// (Algorithm 7 lines 36-40).
func (p *insertWorker) doPost(u int32, rq *[]int32, inR map[int32]bool) {
	st := p.st
	for _, x := range st.G.Adj(u) {
		if p.inStar[x] && st.Din[x] > 0 && st.Before(u, x) {
			st.Din[x]--
			if st.Din[x]+st.Dout[x].Load() <= p.k && !inR[x] {
				inR[x] = true
				*rq = append(*rq, x)
			}
		}
	}
}

// commit promotes the surviving candidates (Algorithm 7 lines 14-17): each
// moves to the head of O_{k+1} preserving V*'s relative order (anchor
// chaining), with core number and position published atomically under the
// order-change status. Every lock this worker still holds is released.
// The promotion changes no d⁺out itself: backward and doPre already
// accounted every flip against a vertex this worker traversed. The one
// orientation it cannot know — against a vertex another worker moved in
// this batch — is left to the batch end (crossWorkerEndpoints).
func (p *insertWorker) commit() {
	st := p.st
	from := st.List(p.k)
	to := st.List(p.k + 1)
	var anchor *om.Item
	for _, w := range p.vstar {
		if !p.inStar[w] {
			continue
		}
		st.Mcd[w].Store(core.McdEmpty)
		for _, x := range st.G.Adj(w) {
			st.Mcd[x].Store(core.McdEmpty)
		}
		if traceFn != nil {
			traceFn("p=%p commit %d -> core %d (head of O_%d)", p, w, p.k+1, p.k+1)
		}
		// The core store and the list move publish as one unit (see
		// core.State.CommitMu): a worker that observes the new core
		// number linearizes after this promotion, and the head placement
		// is only valid if w is already in the list when that happens.
		st.CommitMu.Lock()
		st.BeginOrderChange(w)
		st.Core[w].Store(p.k + 1)
		st.Din[w] = 0
		from.Delete(st.Items[w])
		if anchor == nil {
			to.InsertAtHead(st.Items[w])
		} else {
			to.InsertAfter(anchor, st.Items[w])
		}
		anchor = st.Items[w]
		st.EndOrderChange(w)
		st.CommitMu.Unlock()
		p.moved = append(p.moved, w)
		if p.m != nil {
			p.m.Promotions.Add(1)
		}
	}
	// Unlock all of V+ (line 17): V* members and confirmed
	// non-candidates alike.
	for _, w := range p.vstar {
		if p.inStar[w] {
			st.Locks[w].Unlock()
		}
	}
	for w := range p.done {
		st.Locks[w].Unlock()
	}
}
