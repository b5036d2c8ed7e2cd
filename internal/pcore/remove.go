package pcore

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/spin"
)

// removeWorker executes RemoveEdge_p (Algorithm 8) for one worker p. Only
// vertices entering V* are kept locked; every other examined neighbor is
// locked conditionally and released immediately, and blocking cycles are
// impossible because a conditional lock aborts as soon as the target's core
// number leaves the removal level (§4.2.2).
type removeWorker struct {
	st *core.State
	m  *Metrics

	// per-edge scratch
	k     int32
	rq    []int32
	vstar []int32
}

// removeEdge removes one edge and restores the maintenance invariants.
func (p *removeWorker) removeEdge(u, v int32) core.RemoveStats {
	st := p.st
	if u == v {
		return core.RemoveStats{}
	}
	spin.LockPair(&st.Locks[u], &st.Locks[v]) // line 1
	if !st.G.HasEdge(u, v) {
		// Already removed (duplicate within the batch).
		st.Locks[u].Unlock()
		st.Locks[v].Unlock()
		return core.RemoveStats{}
	}
	cu, cv := st.Core[u].Load(), st.Core[v].Load()
	k := cu
	if cv < k {
		k = cv
	}
	p.k = k
	p.rq = p.rq[:0]
	p.vstar = p.vstar[:0]

	// Line 3: make sure both endpoints have a concrete mcd while the edge
	// still exists, then account the removal.
	p.checkMCD(u, -1)
	p.checkMCD(v, -1)
	if st.Before(u, v) {
		st.Dout[u].Add(-1)
	} else {
		st.Dout[v].Add(-1)
	}
	st.G.RemoveEdge(u, v) // line 4

	droppedU, droppedV := false, false
	if cv >= cu { // the edge was counted in u's mcd (lines 5-6)
		droppedU = p.doMCD(u)
	}
	if cu >= cv {
		droppedV = p.doMCD(v)
	}
	if !droppedU {
		st.Locks[u].Unlock() // line 7
	}
	if !droppedV {
		st.Locks[v].Unlock()
	}

	// Lines 8-16: propagate. Dequeued vertices are locked, core k-1,
	// t = 2.
	for len(p.rq) > 0 {
		w := p.rq[0]
		p.rq = p.rq[1:]
		ap := map[int32]bool{} // A_p: persists across redo rounds (line 16)
		for {
			st.T[w].Add(-1) // line 10: 2 -> 1 (or 3 -> 2 -> ... on redo)
			for _, x := range st.G.Adj(w) {
				if ap[x] || st.Core[x].Load() != k {
					continue
				}
				// Conditional lock (line 12): give up as soon
				// as x stops being a level-k vertex — that is
				// the deadlock-avoidance rule.
				if st.Locks[x].LockIf(func() bool { return st.Core[x].Load() == k }) {
					p.checkMCD(x, w) // line 13
					if !p.doMCD(x) {
						st.Locks[x].Unlock() // line 25
					}
					ap[x] = true // line 14
				} else if p.m != nil {
					p.m.LockAborts.Add(1)
				}
			}
			st.T[w].Add(-1) // line 15
			if st.T[w].Load() <= 0 {
				break
			}
			// line 16: a neighbor's CheckMCD CASed t from 1 to 3
			// while recounting us — redo with A_p intact.
			if p.m != nil {
				p.m.RemovalRedos.Add(1)
			}
		}
	}
	p.commit()
	// p.vstar is reused scratch; copy the dropped set out for the caller.
	return core.RemoveStats{
		Applied: true,
		VStar:   len(p.vstar),
		Changed: append([]int32(nil), p.vstar...),
	}
}

// checkMCD materializes x's mcd if empty (Algorithm 8, CheckMCD). x is
// locked by this worker; neighbors are examined without locks. caller is the
// vertex whose propagation loop invoked us (or -1 at the endpoints): the
// redo CAS is skipped for it because it is about to deliver its own
// decrement (line 32).
func (p *removeWorker) checkMCD(x, caller int32) {
	st := p.st
	if st.Mcd[x].Load() != core.McdEmpty {
		return
	}
	cx := st.Core[x].Load()
	mcd := int32(0)
	for _, v := range st.G.Adj(x) {
		cvv := st.Core[v].Load()
		switch {
		case cvv >= cx:
			mcd++
		case cvv == cx-1 && st.T[v].Load() > 0 && p.inFlightFrom(v, cx):
			// v is mid-drop from x's level and has not delivered
			// its decrement to us yet: count it, and force its
			// propagation to run again so the decrement arrives
			// even if v's visit raced past us (lines 29-33).
			mcd++
			if v != caller && st.T[v].Load() == 1 {
				st.T[v].CompareAndSwap(1, 3)
			}
			if st.T[v].Load() == 0 {
				mcd-- // v finished while we counted
			}
		}
	}
	st.Mcd[x].Store(mcd)
}

// inFlightFrom reports whether v has dropped from level k and is still
// propagating: t > 0 next to core k-1, read as one pair between two equal
// even s values. doMCD stores t and the new core inside v's order-change
// bracket, so the pair cannot mix a drop's new t with the core number it
// is leaving. Read separately, a neighbor caught between the two stores of
// its own drop from k-1 would look in flight from k, and x's mcd would
// keep a neighbor that never delivers its decrement (an mcd one too high,
// and a vertex that fails to drop).
func (p *removeWorker) inFlightFrom(v, k int32) bool {
	st := p.st
	for {
		s := st.S[v].Load()
		if s&1 == 0 {
			c, t := st.Core[v].Load(), st.T[v].Load()
			if st.S[v].Load() == s {
				return c == k-1 && t > 0
			}
		}
		runtime.Gosched()
	}
}

// doMCD accounts one lost qualifying neighbor of the locked vertex x and
// drops x when its mcd sinks below its core number (Algorithm 8, DoMCD).
// On a drop x joins V* and the propagation queue and stays locked. Reports
// whether x dropped; the caller releases the lock otherwise.
func (p *removeWorker) doMCD(x int32) bool {
	st := p.st
	mcd := st.Mcd[x].Add(-1)
	cx := st.Core[x].Load()
	if mcd >= cx {
		return false
	}
	if cx != p.k {
		panic("pcore: mcd fell below core away from removal level")
	}
	// Before moving x, flip the out-edge of every level-k neighbor that
	// precedes x: x now lands below it in k-order (RemoveEdgeSeq's commit
	// rule). Edges to other levels keep their orientation. x is locked,
	// so its adjacency and position are stable; a neighbor that never
	// drops in this batch is stable too, so its update is exact. A
	// neighbor racing through its own drop may get a wrong count here,
	// but every dropped vertex's d⁺out — x's included — is recomputed at
	// the batch end.
	for _, y := range st.G.Adj(x) {
		if st.Core[y].Load() == p.k && st.Before(y, x) {
			st.Dout[y].Add(-1)
		}
	}
	// Line 22: ⟨core ← k-1; t ← 2⟩ published as one unit inside x's
	// order-change bracket, which CheckMCD reads through inFlightFrom, so
	// no observer sees a dropped-but-untracked vertex or a tracked one
	// still at its old core. The core store and the OM relocation to the
	// tail of O_{k-1} publish as one unit too (see core.State.CommitMu):
	// a worker that observes the lowered core number — another removal's
	// mcd count or conditional lock — linearizes its own drops after this
	// one, and the tail placement is only a valid peeling position if x
	// is already at the tail when that happens. (The drop cascade order
	// is the peeling order; the old deferred-to-commit move let a later
	// observer reach the tail first, inverting it.)
	st.CommitMu.Lock()
	st.BeginOrderChange(x)
	st.T[x].Store(2)
	st.Core[x].Store(p.k - 1)
	st.List(p.k).Delete(st.Items[x])
	st.List(p.k - 1).InsertAtTail(st.Items[x])
	st.EndOrderChange(x)
	st.CommitMu.Unlock()
	st.Mcd[x].Store(core.McdEmpty) // line 23
	p.vstar = append(p.vstar, x)   // line 24
	p.rq = append(p.rq, x)
	if p.m != nil {
		p.m.Drops.Add(1)
	}
	return true
}

// commit releases the locks of the dropped set once propagation has
// quiesced. The OM relocations and the neighbors' d⁺out flips happened at
// drop time (doMCD); the dropped vertices' own d⁺out is recomputed at the
// batch end, once every worker has quiesced and the order has settled.
func (p *removeWorker) commit() {
	st := p.st
	for _, w := range p.vstar {
		st.Locks[w].Unlock() // line 18
	}
}
