package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/internal/stats"
	"repro/kcore"
	"repro/obs"
)

// Point reads between batches: blocks of readBlock CoreOf calls, each
// block one latency sample (its mean per read).
const (
	readBlocks = 64
	readBlock  = 1024
)

// seqRounds is how many rounds the traced run pushes through the
// SequentialOrder baseline.
const seqRounds = 2

// call is one timed RemoveEdges or InsertEdges call.
type call struct {
	wall time.Duration // the library call alone
	// span is what the caller waited: the call plus, on a traced call,
	// the counter snapshots taken around it. The end-to-end metrics use
	// it, so tracing.overhead_frac prices that tracing work.
	span time.Duration
	res  kcore.BatchResult
	// Traced calls only: pipeline stage sums and counts the call added,
	// and the serving counters before and after it.
	stage         stageDelta
	before, after kcore.ServingStats
}

// stageDelta is what one stretch of work added to the pipeline's stage
// histograms (kcore_pipeline_stage_seconds), in seconds and counts.
type stageDelta struct {
	waitSum, applySum, publishSum float64
	batches                       float64
}

func (a *stageDelta) add(b stageDelta) {
	a.waitSum += b.waitSum
	a.applySum += b.applySum
	a.publishSum += b.publishSum
	a.batches += b.batches
}

func stageBetween(before, after scrape) stageDelta {
	const h = "kcore_pipeline_stage_seconds"
	return stageDelta{
		waitSum:    delta(before, after, h+"_sum", `stage="coalesce_wait"`),
		applySum:   delta(before, after, h+"_sum", `stage="apply"`),
		publishSum: delta(before, after, h+"_sum", `stage="publish"`),
		batches:    delta(before, after, h+"_count", `stage="apply"`),
	}
}

// localScrape renders a registry and parses it back, the in-process
// twin of scraping kcored's /metrics.
func localScrape(reg *obs.Registry) (scrape, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseScrape(&b)
}

// burstRun is the state of one burst workload run.
type burstRun struct {
	o        opts
	res      *result
	m        *kcore.Maintainer
	reg      *obs.Registry
	batch    []graph.Edge
	full     []int32 // oracle cores of the input graph
	removed  []int32 // oracle cores with the batch removed
	readLat  dist    // µs per read, one sample per block
	readSeed int
}

func runBurst(o opts) (*result, error) {
	res := newResult()
	g := inputGraph()
	b := &burstRun{o: o, res: res, batch: gen.SampleEdges(g, burstEdges, o.seed+1)}

	start := time.Now()
	b.full, _ = bz.Decompose(g)
	res.set("bz.decompose_s", time.Since(start).Seconds(), 1)
	without := g.Clone()
	for _, e := range b.batch {
		without.RemoveEdge(e.U, e.V)
	}
	b.removed, _ = bz.Decompose(without)
	res.env["n"], res.env["m"], res.env["batch_edges"] = g.N(), g.M(), len(b.batch)
	res.env["max_core"] = bz.MaxCore(b.full)
	res.env["engine"] = fmt.Sprintf("%v workers=%d", kcore.ParallelOrder, engineWorkers)

	// Set-up: kcore.New over a fresh copy, several times. The last
	// maintainer serves the run; its retained heap is mem_mb.
	var setups dist
	for i := 0; i < burstSetups; i++ {
		gc := g.Clone()
		if b.m != nil {
			b.m.Close()
			b.m = nil
		}
		heap0 := liveHeap()
		t := time.Now()
		b.m = kcore.New(gc, kcore.WithWorkers(engineWorkers))
		setups = append(setups, time.Since(t).Seconds())
		res.set("mem_mb", float64(liveHeap()-heap0)/(1<<20), 1)
	}
	defer b.m.Close()
	res.set("setup_s", stats.Quantile(setups, 0.5), len(setups))
	b.reg = obs.NewRegistry()
	b.m.PipelineMetrics().Register(b.reg)

	// One untimed warm-up round, checked like every other.
	if _, _, err := b.round(false); err != nil {
		return nil, err
	}
	b.readLat = nil

	// The timed phase. In the traced run every other round is traced —
	// its calls are wrapped in counter snapshots — so the untraced rounds
	// price the tracing, and the SequentialOrder baseline gets the tail
	// of the run.
	var plain, traced []roundResult
	deadline := time.Now().Add(o.seconds)
	if o.trace {
		deadline = deadline.Add(-time.Duration(seqRounds) * 1200 * time.Millisecond)
	}
	// Recovery: the library keeps no log, so a lost Maintainer is rebuilt
	// from its graph. After every round, outside the timed calls,
	// kcore.New rebuilds one from a copy of the maintained graph; spread
	// over the run, these samples see the same host as the rounds do.
	var plainReads, tracedReads, recovers dist
	for r := 0; r < 4 || time.Now().Before(deadline); r++ {
		tr := o.trace && r%2 == 1
		rem, ins, err := b.round(tr)
		if err != nil {
			return nil, err
		}
		rec := b.rebuild()
		recovers = append(recovers, rec)
		res.notef("round %d: remove %.0f edges/s, insert %.0f edges/s, rebuild %.3f s, traced %v", r,
			float64(rem.res.Applied)/rem.span.Seconds(), float64(ins.res.Applied)/ins.span.Seconds(), rec, tr)
		if tr {
			traced = append(traced, roundResult{rem, ins})
			tracedReads = append(tracedReads, b.readLat...)
		} else {
			plain = append(plain, roundResult{rem, ins})
			plainReads = append(plainReads, b.readLat...)
		}
		b.readLat = nil
	}
	e2e := burstEndToEnd(plain, plainReads)
	for k, v := range e2e.values {
		res.set(k, v, e2e.samples[k])
	}

	res.set("recover_s", stats.Quantile(recovers, 0.5), len(recovers))

	if o.trace {
		tr := burstEndToEnd(traced, tracedReads)
		for _, name := range overheadOf {
			res.values["tracing.overhead_frac."+name] = ratio(tr.values[name]-e2e.values[name], e2e.values[name])
		}
		b.layers(g, traced)
	}
	return res, nil
}

// rebuild times kcore.New over a copy of the maintained graph, from a
// collected heap as each set-up is, and returns the seconds it took.
func (b *burstRun) rebuild() float64 {
	var gc *graph.Graph
	b.m.AtQuiescence(func(q kcore.QuiescentState) { gc = q.Graph().Clone() })
	runtime.GC()
	t := time.Now()
	m := kcore.New(gc, kcore.WithWorkers(engineWorkers))
	d := time.Since(t).Seconds()
	m.Close()
	return d
}

// liveHeap returns the bytes of heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

type roundResult struct{ rem, ins call }

// round removes the batch and inserts it back, timing each call,
// checking the cores after each against the oracle (outside the timed
// calls), and sampling point-read latency after each.
func (b *burstRun) round(traced bool) (rem, ins call, err error) {
	rem, err = b.timed(traced, b.m.RemoveEdges)
	if err != nil {
		return rem, ins, err
	}
	b.check("removal", rem, b.removed)
	ins, err = b.timed(traced, b.m.InsertEdges)
	if err != nil {
		return rem, ins, err
	}
	b.check("insertion", ins, b.full)
	return rem, ins, nil
}

func (b *burstRun) timed(traced bool, fn func([]graph.Edge) kcore.BatchResult) (call, error) {
	var c call
	var before scrape
	t0 := time.Now()
	if traced {
		var err error
		if before, err = localScrape(b.reg); err != nil {
			return c, err
		}
		c.before = b.m.ServingStats()
	}
	t := time.Now()
	c.res = fn(b.batch)
	c.wall = time.Since(t)
	if traced {
		c.after = b.m.ServingStats()
		after, err := localScrape(b.reg)
		if err != nil {
			return c, err
		}
		c.stage = stageBetween(before, after)
	}
	c.span = time.Since(t0)
	return c, nil
}

// check compares the maintained cores with the oracle — one attempted
// operation for the batch — and then times point reads, each checked
// against the oracle too.
func (b *burstRun) check(what string, c call, want []int32) {
	b.res.attempted++
	if c.res.Applied != len(b.batch) {
		b.res.fail(1, "%s applied %d of %d edges", what, c.res.Applied, len(b.batch))
	} else {
		got := b.m.CoreNumbers()
		bad := 0
		for v := range want {
			if got[v] != want[v] {
				bad++
			}
		}
		if bad > 0 {
			b.res.fail(1, "%s batch left %d vertices whose core differs from bz.Decompose", what, bad)
		}
	}
	wrong := 0
	for blk := 0; blk < readBlocks; blk++ {
		base := b.readSeed
		b.readSeed += readBlock
		t := time.Now()
		for j := 0; j < readBlock; j++ {
			v := vertexAt(b.o.seed, base+j, 0, len(want))
			if b.m.CoreOf(v) != want[v] {
				wrong++
			}
		}
		b.readLat = append(b.readLat, float64(time.Since(t).Nanoseconds())/1e3/readBlock)
	}
	b.res.attempted += readBlocks * readBlock
	b.res.fail(int64(wrong), "point reads after the %s batch disagreed with bz.Decompose", what)
}

// burstEndToEnd derives the end-to-end metrics from a set of rounds.
func burstEndToEnd(rounds []roundResult, reads dist) *result {
	r := newResult()
	var ins, rem, both, ack dist
	for _, rr := range rounds {
		ins = append(ins, float64(rr.ins.res.Applied)/rr.ins.span.Seconds())
		rem = append(rem, float64(rr.rem.res.Applied)/rr.rem.span.Seconds())
		w := rr.rem.span + rr.ins.span
		both = append(both, float64(rr.rem.res.Applied+rr.ins.res.Applied)/w.Seconds())
		ack = append(ack, float64(w.Microseconds()))
	}
	r.set("insert_edges_per_s", stats.Quantile(ins, 0.5), len(ins))
	r.set("remove_edges_per_s", stats.Quantile(rem, 0.5), len(rem))
	r.set("ops_per_s", stats.Quantile(both, 0.5), len(both))
	r.set("write_ack_p50_us", stats.Quantile(ack, 0.5), len(ack))
	r.set("write_ack_p99_us", stats.Quantile(ack, 0.99), len(ack))
	r.set("read_p50_us", stats.Quantile(reads, 0.5), len(reads))
	r.set("read_p99_us", stats.Quantile(reads, 0.99), len(reads))
	return r
}

// layers fills the per-layer metrics from the traced rounds and runs the
// same batches through the SequentialOrder baseline.
func (b *burstRun) layers(g *graph.Graph, traced []roundResult) {
	res := b.res
	var applyIns, applyRem, callIns, callRem, overhead dist
	var vstar, vplus, aborts, rebuilds, redos, evictions dist
	var stages stageDelta
	var batches, batched, canceled, dirty, deltas, fulls int64
	for _, rr := range traced {
		for _, c := range []call{rr.rem, rr.ins} {
			stages.add(c.stage)
			overhead = append(overhead, c.wall.Seconds()-c.stage.applySum-c.stage.publishSum)
			batches += c.after.Batches - c.before.Batches
			batched += c.after.BatchedOps - c.before.BatchedOps
			canceled += c.after.CanceledOps - c.before.CanceledOps
			dirty += c.after.DirtyPages - c.before.DirtyPages
			deltas += c.after.DeltaPublishes - c.before.DeltaPublishes
			fulls += c.after.FullPublishes - c.before.FullPublishes
		}
		applyRem = append(applyRem, rr.rem.res.Duration.Seconds())
		applyIns = append(applyIns, rr.ins.res.Duration.Seconds())
		callRem = append(callRem, rr.rem.wall.Seconds())
		callIns = append(callIns, rr.ins.wall.Seconds())
		vstar = append(vstar, float64(rr.ins.res.ChangedVertices))
		var vp int
		for _, s := range rr.ins.res.VPlusSizes {
			vp += s
		}
		vplus = append(vplus, float64(vp))
		ct := rr.rem.res.Contention
		ct.LockAborts += rr.ins.res.Contention.LockAborts
		ct.QueueRebuilds += rr.ins.res.Contention.QueueRebuilds
		ct.RemovalRedos += rr.ins.res.Contention.RemovalRedos
		ct.Evictions += rr.ins.res.Contention.Evictions
		aborts = append(aborts, float64(ct.LockAborts))
		rebuilds = append(rebuilds, float64(ct.QueueRebuilds))
		redos = append(redos, float64(ct.RemovalRedos))
		evictions = append(evictions, float64(ct.Evictions))
	}
	n := len(traced)
	res.set("pcore.apply_insert_s", stats.Quantile(applyIns, 0.5), n)
	res.set("pcore.apply_remove_s", stats.Quantile(applyRem, 0.5), n)
	res.set("pcore.vstar", stats.Quantile(vstar, 0.5), n)
	res.set("pcore.vplus", stats.Quantile(vplus, 0.5), n)
	res.set("pcore.vstar_per_vplus", ratio(stats.Quantile(vstar, 0.5), stats.Quantile(vplus, 0.5)), n)
	res.set("pcore.lock_aborts", stats.Quantile(aborts, 0.5), n)
	res.set("pcore.queue_rebuilds", stats.Quantile(rebuilds, 0.5), n)
	res.set("pcore.removal_redos", stats.Quantile(redos, 0.5), n)
	res.set("pcore.evictions", stats.Quantile(evictions, 0.5), n)
	res.set("kcore.call_insert_s", stats.Quantile(callIns, 0.5), n)
	res.set("kcore.call_remove_s", stats.Quantile(callRem, 0.5), n)
	res.set("kcore.overhead_s", stats.Quantile(overhead, 0.5), len(overhead))
	res.set("kcore.coalesce_wait_mean_us", 1e6*ratio(stages.waitSum, stages.batches), int(stages.batches))
	res.set("kcore.apply_mean_us", 1e6*ratio(stages.applySum, stages.batches), int(stages.batches))
	res.set("kcore.publish_mean_us", 1e6*ratio(stages.publishSum, stages.batches), int(stages.batches))
	res.set("kcore.ops_per_batch", ratio(float64(batched), float64(batches)), int(batches))
	res.set("kcore.canceled_ops", float64(canceled), int(batches))
	res.set("snapshot.dirty_pages_per_publish", ratio(float64(dirty), float64(deltas)), int(deltas))
	res.set("snapshot.full_publishes", ratio(float64(fulls), float64(batches)), int(batches))

	callMean := (stats.Summarize(callIns).Mean + stats.Summarize(callRem).Mean) / 2
	stageMean := ratio(stages.waitSum+stages.applySum+stages.publishSum, stages.batches)
	res.set("closure.write_residual_frac", 1-ratio(stageMean, callMean), 2*n)
	res.notef("closure: call mean %.1f ms = coalesce_wait %.3f ms + apply %.1f ms + publish %.1f ms + residual %.2f ms (the caller's enqueue, future hand-off and wake-up)",
		1e3*callMean, 1e3*ratio(stages.waitSum, stages.batches), 1e3*ratio(stages.applySum, stages.batches),
		1e3*ratio(stages.publishSum, stages.batches), 1e3*(callMean-stageMean))

	// The single-thread baseline: the same batches through
	// SequentialOrder, timed by its own BatchResult.Duration.
	seq := kcore.New(g.Clone(), kcore.WithAlgorithm(kcore.SequentialOrder))
	defer seq.Close()
	var seqIns, seqRem dist
	for r := 0; r < seqRounds; r++ {
		rem := seq.RemoveEdges(b.batch)
		ins := seq.InsertEdges(b.batch)
		seqRem = append(seqRem, rem.Duration.Seconds())
		seqIns = append(seqIns, ins.Duration.Seconds())
	}
	res.set("core.seq_insert_s", stats.Quantile(seqIns, 0.5), seqRounds)
	res.set("core.seq_remove_s", stats.Quantile(seqRem, 0.5), seqRounds)
	seqTime := stats.Quantile(seqIns, 0.5) + stats.Quantile(seqRem, 0.5)
	parTime := stats.Quantile(applyIns, 0.5) + stats.Quantile(applyRem, 0.5)
	res.set("pcore.speedup_vs_seq", ratio(seqTime, parTime), n)
}
