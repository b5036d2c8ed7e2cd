package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/client"
	"repro/gen"
	"repro/graph"
	"repro/internal/bz"
	"repro/internal/stats"
	"repro/resp"
)

// Offered load: well below the rates at which the workloads saturated a
// 2-CPU box, where the p50 latencies hold still between runs (see
// README.md). All rates are per second.
const (
	readRate       = 10_000 // serve-read: CORE.GET point reads
	readWriteRatio = 49     // serve-read: reads per churn write
	readChunk      = 4      // serve-read: edges per churn write
	durableRate    = 250    // serve-durable: churn writes (×16 edges)
	durableChunk   = 16
	// serve-durable checkpoints every this many logged edge ops, so that
	// several checkpoints land inside every segment.
	durableCheckpointOps = 6_000

	// Segments per run, each one kcored lifetime with one set-up and one
	// recovery. A spawn's time to first reply varies by a fifth between
	// spawns on a shared host, so serve-read, whose set-up and recovery
	// are the same edge-list import, takes more of them.
	readSegments    = 6
	durableSegments = 8
	// Sweeps of the recovered server per serve-durable segment. A single
	// timed sweep's p50 ranged over 2x between segments of one run.
	durableSweeps = 4

	tick        = time.Millisecond       // send granularity of the open loop
	churnChunks = 4096                   // chunks in the churn pool
	churnLead   = 64                     // chunks absent at once
	sweepChunk  = 512                    // vertices per CORE.MGET of the final sweep
	traceWindow = time.Second            // traced and untraced stretches alternate
	tracePoll   = 100 * time.Millisecond // /metrics scrape period in a traced window
)

// serveSpec describes one served workload.
type serveSpec struct {
	readRate  float64 // 0: no read stream
	writeRate float64
	chunk     int
	durable   bool
	segments  int
}

func runServeRead(o opts) (*result, error) {
	return runServe(o, serveSpec{readRate: readRate, writeRate: readRate / readWriteRatio, chunk: readChunk, segments: readSegments})
}

func runServeDurable(o opts) (*result, error) {
	return runServe(o, serveSpec{writeRate: durableRate, chunk: durableChunk, durable: true, segments: durableSegments})
}

func runServe(o opts, spec serveSpec) (*result, error) {
	res := newResult()
	g := inputGraph()
	start := time.Now()
	bz.Decompose(g)
	res.set("bz.decompose_s", time.Since(start).Seconds(), 1)

	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &serveRun{o: o, spec: spec, res: res, base: g, dir: dir, dataDir: filepath.Join(dir, "data")}
	edgeFile := filepath.Join(dir, "graph.txt")
	if err := writeEdgeList(g, edgeFile); err != nil {
		return nil, err
	}
	r.flags = []string{"-workers", strconv.Itoa(engineWorkers), "-quiet", "-load", edgeFile}
	if spec.durable {
		r.flags = append(r.flags, "-dir", r.dataDir, "-aof-fsync", "always",
			"-checkpoint-ops", strconv.Itoa(durableCheckpointOps))
	}
	res.env["kcored_flags"] = r.flags
	res.env["kcored_metrics_addr"] = o.trace // -metrics-addr only in the traced run
	res.env["offered_reads_per_s"] = spec.readRate
	res.env["offered_writes_per_s"] = spec.writeRate
	res.env["edges_per_write"] = spec.chunk
	res.env["segments"] = spec.segments
	res.env["n"], res.env["m"] = g.N(), g.M()

	// The churn pool: real graph edges, removed and put back.
	r.churn = newChurn(gen.SampleEdges(g, churnChunks*spec.chunk, o.seed+2), spec.chunk, churnLead)

	// The run is spec.segments segments, each one kcored lifetime, so
	// every figure is a median over several server processes.
	var segs []*segment
	for k := 0; k < spec.segments; k++ {
		seg, err := r.segment(k)
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	medianInto(res, segs, func(s *segment) *result { return s.plain })
	if !spec.durable {
		// serve-read's restart re-imports the edge list, the same work
		// as its set-up, so both figures are the median of every spawn.
		var spawns dist
		for _, s := range segs {
			spawns = append(spawns, s.plain.values["setup_s"], s.plain.values["recover_s"])
		}
		res.set("setup_s", stats.Quantile(spawns, 0.5), len(spawns))
		res.set("recover_s", stats.Quantile(spawns, 0.5), len(spawns))
	}
	if o.trace {
		traced := newResult()
		medianInto(traced, segs, func(s *segment) *result { return s.traced })
		for _, name := range overheadOf {
			res.values["tracing.overhead_frac."+name] = ratio(traced.values[name]-res.values[name], res.values[name])
		}
		medianInto(res, segs, func(s *segment) *result { return s.layers })
		for k, s := range segs {
			for _, n := range s.layers.notes {
				res.notef("segment %d %s", k, n)
			}
		}
	}
	return res, nil
}

// serveRun is the state of one served workload run.
type serveRun struct {
	o            opts
	spec         serveSpec
	res          *result
	base         *graph.Graph
	churn        churn
	dir, dataDir string
	flags        []string
}

// segment is what one server lifetime measured: end-to-end metrics over
// the untraced and the traced stretches, and per-layer metrics.
type segment struct {
	plain, traced, layers *result
}

// medianInto sets every metric that pick finds on the segments to its
// median over them, with the samples summed.
func medianInto(dst *result, segs []*segment, pick func(*segment) *result) {
	for name := range pick(segs[0]).values {
		var vals dist
		n := 0
		for _, s := range segs {
			vals = append(vals, pick(s).values[name])
			n += pick(s).samples[name]
		}
		dst.set(name, stats.Quantile(vals, 0.5), n)
	}
}

// segment runs one server lifetime: spawn to first reply (setup_s;
// a durable server starts on an empty -dir, so this includes the
// initial checkpoint), open-loop traffic, a SIGKILL, and a restart to
// first reply (recover_s). serve-read checks the live server before the
// kill, and its restart re-imports the edge list; serve-durable checks
// the restarted server, which must hold every acked write.
func (r *serveRun) segment(k int) (*segment, error) {
	o, spec := r.o, r.spec
	if err := os.RemoveAll(r.dataDir); err != nil {
		return nil, err
	}
	logPath := filepath.Join(r.dir, fmt.Sprintf("kcored-%d.log", k))
	srv, setup, err := startServer(o.kcored, r.flags, o.trace, logPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	if st, err := srv.stats(); err == nil {
		r.res.env["kcored"] = st["version"] + " " + st["engine"] + " workers=" + st["workers"]
	}

	mir := newMirror(r.base)
	var before, after scrape
	if o.trace {
		if before, err = fetchMetrics(srv.metricsAddr); err != nil {
			return nil, err
		}
	}
	traced := func(due time.Duration) bool { return o.trace && (due/traceWindow)%2 == 1 }
	plain := func(due time.Duration) bool { return !traced(due) }
	run := o.seconds / time.Duration(spec.segments)
	var streams []*stream
	var reads *stream
	if spec.readRate > 0 {
		reads = newStream(newSchedule(spec.readRate, tick, run),
			readEncoder(o.seed, k, r.base.N()), func(_ int, v resp.Value) bool { return v.Kind == resp.Integer })
		streams = append(streams, reads)
	}
	writes := newStream(newSchedule(spec.writeRate, tick, run),
		writeEncoder(r.churn), func(i int, v resp.Value) bool {
			if v.Kind != resp.Integer {
				return false
			}
			remove, edges := r.churn.op(i)
			mir.ack(remove, edges)
			return true
		})
	streams = append(streams, writes)
	for _, st := range streams {
		st.traced = traced
	}
	var trace func(time.Time, <-chan struct{}) error
	scrapes := 0
	if o.trace {
		trace = func(start time.Time, stop <-chan struct{}) (err error) {
			scrapes, err = pollTraced(srv.metricsAddr, traced, start, stop)
			return err
		}
	}
	if err := runStreams(srv.addr, streams, run, trace); err != nil {
		return nil, err
	}
	for _, st := range streams {
		r.res.attempted += int64(st.sched.count)
		r.res.fail(int64(st.errs), "error replies")
		r.res.fail(int64(st.unanswered()), "unanswered requests (%v)", st.err())
	}
	mem, err := srv.vmHWM()
	if err != nil {
		return nil, err
	}
	if o.trace {
		if after, err = fetchMetrics(srv.metricsAddr); err != nil {
			return nil, err
		}
	}

	want, _ := bz.Decompose(mir.graph())
	var sweepLat dist
	if !spec.durable {
		if _, err := sweepCheck(srv.addr, want, r.res); err != nil {
			return nil, err
		}
	}
	srv.kill()
	srv, rec, err := startServer(o.kcored, r.flags, o.trace, logPath+".restart")
	if err != nil {
		return nil, err
	}
	if spec.durable {
		// Checked sweeps; all but the first, on a warmed-up server, give
		// the read latency.
		for i := 0; i < durableSweeps; i++ {
			lat, err := sweepCheck(srv.addr, want, r.res)
			if err != nil {
				return nil, err
			}
			if i > 0 {
				sweepLat = append(sweepLat, lat...)
			}
		}
	}

	seg := &segment{
		plain:  serveEndToEnd(reads, writes, r.churn, sweepLat, plain),
		traced: serveEndToEnd(reads, writes, r.churn, sweepLat, traced),
		layers: newResult(),
	}
	r.res.notef("segment %d: read p50 %.0f p99 %.0f us, write-ack p50 %.0f p99 %.0f us, setup %.2f s, recover %.2f s",
		k, seg.plain.values["read_p50_us"], seg.plain.values["read_p99_us"],
		seg.plain.values["write_ack_p50_us"], seg.plain.values["write_ack_p99_us"], setup.Seconds(), rec.Seconds())
	seg.plain.set("setup_s", setup.Seconds(), 1)
	seg.plain.set("recover_s", rec.Seconds(), 1)
	seg.plain.set("mem_mb", mem, 1)
	if o.trace {
		serveLayers(seg.layers, before, after, streams, writes, spec)
		seg.layers.notef("%d /metrics scrapes inside the traced windows", scrapes)
	}
	return seg, nil
}

func writeEdgeList(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := g.WriteEdgeList(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runStreams runs the streams open-loop, each on its own connection,
// all against one start time. A non-nil trace runs beside them from
// that start until the last reply.
func runStreams(addr string, streams []*stream, run time.Duration, trace func(start time.Time, stop <-chan struct{}) error) error {
	start := time.Now().Add(50 * time.Millisecond)
	conns := make([]net.Conn, len(streams))
	for i := range streams {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer nc.Close()
		// A server that stops answering fails the run instead of hanging it.
		if err := nc.SetDeadline(start.Add(run + 60*time.Second)); err != nil {
			return err
		}
		conns[i] = nc
	}
	if trace == nil {
		openLoop(streams, conns, start)
		return nil
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- trace(start, stop) }()
	openLoop(streams, conns, start)
	close(stop)
	return <-done
}

// pollTraced is the tracing work of a traced served run: from start
// until stop closes, it scrapes kcored's /metrics every tracePoll while
// a traced window is open. The scrapes' cost — rendering on the server,
// parsing in the benchmark — so lands in the traced windows, which
// tracing.overhead_frac compares with the untraced ones. It returns how
// many scrapes it made.
func pollTraced(maddr string, traced func(time.Duration) bool, start time.Time, stop <-chan struct{}) (int, error) {
	n := 0
	for at := tracePoll; ; at += tracePoll {
		select {
		case <-stop:
			return n, nil
		case <-time.After(time.Until(start.Add(at))):
		}
		if traced(at) {
			if _, err := fetchMetrics(maddr); err != nil {
				return n, err
			}
			n++
		}
	}
}

// readEncoder writes read request i of segment k: CORE.GET of one
// vertex drawn uniformly, the point read loadserve -net sends.
func readEncoder(seed int64, k, n int) func(*resp.Writer, int) {
	var num [20]byte
	seed += int64(k) << 32
	return func(w *resp.Writer, i int) {
		w.WriteArrayHeader(2)
		w.WriteBulkString("CORE.GET")
		w.WriteBulk(strconv.AppendInt(num[:0], int64(vertexAt(seed, i, 0, n)), 10))
	}
}

// writeEncoder writes churn op i as CORE.REMOVE or CORE.INSERT.
func writeEncoder(ch churn) func(*resp.Writer, int) {
	var num [20]byte
	return func(w *resp.Writer, i int) {
		remove, edges := ch.op(i)
		w.WriteArrayHeader(1 + 2*len(edges))
		if remove {
			w.WriteBulkString("CORE.REMOVE")
		} else {
			w.WriteBulkString("CORE.INSERT")
		}
		for _, e := range edges {
			w.WriteBulk(strconv.AppendInt(num[:0], int64(e.U), 10))
			w.WriteBulk(strconv.AppendInt(num[:0], int64(e.V), 10))
		}
	}
}

// sweepCheck reads every vertex's core with closed-loop CORE.MGET
// requests, compares each with want, and counts every vertex read as
// one attempted operation and every mismatch as a failed one. It
// returns each request's latency in µs.
func sweepCheck(addr string, want []int32, res *result) (dist, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var lat dist
	ids := make([]int32, 0, sweepChunk)
	bad := 0
	for lo := 0; lo < len(want); lo += sweepChunk {
		ids = ids[:0]
		for v := lo; v < len(want) && v < lo+sweepChunk; v++ {
			ids = append(ids, int32(v))
		}
		t := time.Now()
		if err := c.SendInt32s("CORE.MGET", ids); err != nil {
			return nil, err
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
		got, err := client.Ints(c.Receive())
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
		if err != nil || len(got) != len(ids) {
			return nil, fmt.Errorf("sweep CORE.MGET at %d: %v (%d replies)", lo, err, len(got))
		}
		for k, id := range ids {
			if int32(got[k]) != want[id] {
				bad++
			}
		}
	}
	res.attempted += int64(len(want))
	res.fail(int64(bad), "vertices whose served core differs from bz.Decompose of the acked-write mirror")
	return lat, nil
}

// serveEndToEnd derives the end-to-end metrics of a served run from the
// requests whose due time keep accepts.
func serveEndToEnd(reads, writes *stream, ch churn, sweep dist, keep func(time.Duration) bool) *result {
	r := newResult()
	// The measured stretch ends with the last reply, so a backlog that
	// drains after the schedule ends lowers every rate.
	span := writes.lastReply()
	if reads != nil && reads.lastReply() > span {
		span = reads.lastReply()
	}
	frac := keptFraction(writes.sched, keep)
	secs := span.Seconds() * frac
	var insEdges, remEdges, ops float64
	for i, ns := range writes.lat {
		if ns < 0 || !keep(writes.sched.due(i)) {
			continue
		}
		ops++
		if remove, edges := ch.op(i); remove {
			remEdges += float64(len(edges))
		} else {
			insEdges += float64(len(edges))
		}
	}
	wl := writes.latencies(keep)
	rl := sweep
	if reads != nil {
		rl = reads.latencies(keep)
		ops += float64(len(rl))
	}
	chunk := float64(len(ch.chunks[0]))
	r.set("insert_edges_per_s", ratio(insEdges, secs), int(insEdges/chunk))
	r.set("remove_edges_per_s", ratio(remEdges, secs), int(remEdges/chunk))
	r.set("ops_per_s", ratio(ops, secs), int(ops))
	r.set("read_p50_us", rl.groupedPercentile(0.5), len(rl))
	r.set("read_p99_us", rl.groupedPercentile(0.99), len(rl))
	r.set("write_ack_p50_us", wl.groupedPercentile(0.5), len(wl))
	r.set("write_ack_p99_us", wl.groupedPercentile(0.99), len(wl))
	return r
}

// keptFraction is the share of a schedule's requests keep accepts.
func keptFraction(s schedule, keep func(time.Duration) bool) float64 {
	n := 0
	for i := 0; i < s.count; i++ {
		if keep(s.due(i)) {
			n++
		}
	}
	return ratio(float64(n), float64(s.count))
}

// serveLayers fills the per-layer metrics of a traced served run from
// the /metrics scrapes around the timed phase and the load generator's
// own spans.
func serveLayers(res *result, before, after scrape, streams []*stream, writes *stream, spec serveSpec) {
	const stage = "kcore_pipeline_stage_seconds"
	wait, batches := histMean(before, after, stage, `stage="coalesce_wait"`)
	apply, _ := histMean(before, after, stage, `stage="apply"`)
	publish, _ := histMean(before, after, stage, `stage="publish"`)
	res.set("kcore.coalesce_wait_mean_us", wait*1e6, int(batches))
	res.set("kcore.apply_mean_us", apply*1e6, int(batches))
	res.set("kcore.publish_mean_us", publish*1e6, int(batches))
	nb := delta(before, after, "kcored_batches_total")
	res.set("kcore.ops_per_batch", ratio(delta(before, after, "kcored_pipeline_ops_total", `kind="batched"`), nb), int(nb))
	res.set("kcore.canceled_ops", delta(before, after, "kcored_pipeline_ops_total", `kind="canceled"`), int(nb))
	deltas := delta(before, after, "kcored_publishes_total", `kind="delta"`)
	res.set("snapshot.dirty_pages_per_publish", ratio(delta(before, after, "kcored_dirty_pages_total"), deltas), int(deltas))
	res.set("snapshot.full_publishes", ratio(delta(before, after, "kcored_publishes_total", `kind="full"`), nb), int(nb))

	const cmdLat = "kcored_command_latency_seconds"
	rlat, rn := histMean(before, after, cmdLat, `family="read"`)
	wlat, wn := histMean(before, after, cmdLat, `family="write"`)
	res.set("server.read_lat_mean_us", rlat*1e6, int(rn))
	res.set("server.write_lat_mean_us", wlat*1e6, int(wn))
	res.set("server.commands", delta(before, after, "kcored_commands_total"), 1)
	res.set("server.errors", delta(before, after, "kcored_errors_total"), 1)

	var flush, wt, lag dist
	for _, st := range streams {
		flush = append(flush, st.flushNs...)
		wt = append(wt, st.waitNs...)
		for _, ns := range st.lag {
			lag = append(lag, float64(ns))
		}
	}
	res.set("client.flush_us", stats.Summarize(flush).Mean/1e3, len(flush))
	res.set("client.wait_us", stats.Summarize(wt).Mean/1e3, len(wt))
	res.set("loadgen.lag_p99_us", stats.Quantile(lag, 0.99)/1e3, len(lag))

	var ackedEdges float64
	for _, ns := range writes.lat {
		if ns >= 0 {
			ackedEdges += float64(spec.chunk)
		}
	}
	const fsync = "kcored_aof_fsync_seconds"
	fmean, fn := histMean(before, after, fsync)
	res.set("persist.fsync_mean_us", fmean*1e6, int(fn))
	res.set("persist.fsync_p99_us", histQuantile(before, after, fsync, 0.99)*1e6, int(fn))
	res.set("persist.fsyncs_per_edge", ratio(fn, ackedEdges), int(fn))
	res.set("persist.bytes_per_edge", ratio(delta(before, after, "kcored_aof_bytes_total"), ackedEdges), int(ackedEdges))
	res.set("persist.checkpoints", delta(before, after, "kcored_checkpoints_total"), 1)
	res.set("persist.checkpoint_s", after.sum("kcored_checkpoint_last_duration_seconds"), 1)

	ack := writes.latencies(func(time.Duration) bool { return true })
	ackMean := stats.Summarize(ack).Mean / 1e6 // s
	stages := wait + apply + publish + fmean
	res.set("closure.write_residual_frac", 1-ratio(stages, ackMean), len(ack))
	res.notef("closure: client write-ack mean %.1f us = coalesce_wait %.1f + apply %.1f + publish %.1f + fsync %.1f + residual %.1f us (send lateness, RESP parse and dispatch, reply flush, loopback and client read; stage means are per batch, the ack mean per write)",
		ackMean*1e6, wait*1e6, apply*1e6, publish*1e6, fmean*1e6, (ackMean-stages)*1e6)
	res.notef("server-side: read mean %.1f us over %d commands, write mean %.1f us over %d drains", rlat*1e6, int(rn), wlat*1e6, int(wn))
}
