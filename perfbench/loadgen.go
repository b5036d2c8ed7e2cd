package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/resp"
)

// schedule is a fixed-rate open-loop send schedule. Request i is due at
// the last tick boundary at or before its ideal time i·period, so the
// requests of one tick leave together as one pipelined flush — the
// generator never waits for a reply before sending the next request.
type schedule struct {
	period time.Duration // ideal gap between consecutive requests
	tick   time.Duration // send granularity
	count  int           // requests in the run
}

// newSchedule spreads rate requests per second over a run of the given
// length.
func newSchedule(rate float64, tick, run time.Duration) schedule {
	period := time.Duration(float64(time.Second) / rate)
	return schedule{period: period, tick: tick, count: int(run / period)}
}

// due returns request i's send time as an offset from the run start.
func (s schedule) due(i int) time.Duration {
	ideal := time.Duration(i) * s.period
	return ideal - ideal%s.tick
}

// stream is one connection's share of the open loop: the generator
// writes each request at its due time whatever the backlog, and the
// stream's receiver reads the in-order replies. Every request is timed
// from its due time, so a stall also charges the requests queued behind
// it.
type stream struct {
	sched  schedule
	encode func(w *resp.Writer, i int)    // writes request i
	reply  func(i int, v resp.Value) bool // checks each non-error reply, in order
	traced func(due time.Duration) bool   // requests whose flush and wait are recorded

	next    int // next request to send
	w       *resp.Writer
	q       chan sent // flushes whose replies are owed
	lat     []int64   // ns from due to reply; -1 while unanswered
	lag     []int64   // ns the sender ran late on each request
	errs    int       // error or malformed replies
	sendErr error     // transport error that stopped the sender
	recvErr error     // transport error that stopped the receiver
	flushNs dist      // traced flush durations
	waitNs  dist      // traced reply time minus flush end
}

// maxFlush bounds the requests one flush carries after a stall.
const maxFlush = 512

// sent is one flush: requests [first, end) left at flushEnd.
type sent struct {
	first, end int
	flushEnd   time.Time
}

func newStream(s schedule, encode func(*resp.Writer, int), reply func(int, resp.Value) bool) *stream {
	st := &stream{
		sched:  s,
		encode: encode,
		reply:  reply,
		traced: func(time.Duration) bool { return false },
		lat:    make([]int64, s.count),
		lag:    make([]int64, s.count),
	}
	for i := range st.lat {
		st.lat[i] = -1
	}
	return st
}

// openLoop runs every stream's schedule over its connection from start
// and returns once every reply has arrived or its connection failed.
// One goroutine sends for all streams, so one thread sleeps between
// ticks; each stream has its own receiver.
func openLoop(streams []*stream, conns []net.Conn, start time.Time) {
	var wg sync.WaitGroup
	for i, st := range streams {
		st.w = resp.NewWriterSize(conns[i], 1<<16)
		// One entry per flush in flight: a stall of several seconds at
		// one flush per tick stays well inside it.
		st.q = make(chan sent, 1<<16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.receive(resp.NewReaderSize(conns[i], 1<<16), start)
		}()
	}
	sendAll(streams, start)
	wg.Wait()
}

// sendAll is the generator: it sleeps until the earliest due request of
// any stream, then writes and flushes every request due by now.
func sendAll(streams []*stream, start time.Time) {
	defer func() {
		for _, st := range streams {
			close(st.q)
		}
	}()
	release := preciseTimer()
	defer release()
	for {
		wake := time.Duration(-1)
		for _, st := range streams {
			if st.sendErr == nil && st.next < st.sched.count {
				if d := st.sched.due(st.next); wake < 0 || d < wake {
					wake = d
				}
			}
		}
		if wake < 0 {
			return
		}
		now := time.Now()
		if d := wake - now.Sub(start); d > 0 {
			preciseSleep(d)
			continue
		}
		for _, st := range streams {
			if st.sendErr == nil {
				st.sendDue(now, now.Sub(start))
			}
		}
	}
}

// sendDue writes and flushes the stream's requests due by elapsed.
func (st *stream) sendDue(now time.Time, elapsed time.Duration) {
	first := st.next
	for st.next < st.sched.count && st.next-first < maxFlush && st.sched.due(st.next) <= elapsed {
		st.encode(st.w, st.next)
		st.lag[st.next] = int64(elapsed - st.sched.due(st.next))
		st.next++
	}
	if st.next == first {
		return
	}
	err := st.w.Flush()
	end := time.Now()
	if st.traced(st.sched.due(first)) {
		st.flushNs = append(st.flushNs, float64(end.Sub(now)))
	}
	if err != nil {
		st.sendErr = fmt.Errorf("send: %w", err)
		return
	}
	st.q <- sent{first, st.next, end}
}

func (st *stream) receive(r *resp.Reader, start time.Time) {
	for b := range st.q {
		if st.recvErr != nil {
			continue // keep draining so the sender never blocks on q
		}
		for i := b.first; i < b.end; i++ {
			v, err := r.ReadValue()
			if err != nil {
				st.recvErr = fmt.Errorf("receive: %w", err)
				break
			}
			now := time.Now()
			st.lat[i] = int64(now.Sub(start) - st.sched.due(i))
			if st.traced(st.sched.due(i)) {
				st.waitNs = append(st.waitNs, float64(now.Sub(b.flushEnd)))
			}
			if v.Kind == resp.Error || !st.reply(i, v) {
				st.errs++
			}
		}
	}
}

// latencies returns the reply latencies (µs) of the answered requests
// whose due time keep accepts.
func (st *stream) latencies(keep func(due time.Duration) bool) dist {
	var d dist
	for i, ns := range st.lat {
		if ns >= 0 && keep(st.sched.due(i)) {
			d = append(d, float64(ns)/1e3)
		}
	}
	return d
}

// err returns the first transport error of the run, if any.
func (st *stream) err() error {
	if st.sendErr != nil {
		return st.sendErr
	}
	return st.recvErr
}

// unanswered counts requests that never got a reply.
func (st *stream) unanswered() int {
	n := 0
	for _, ns := range st.lat {
		if ns < 0 {
			n++
		}
	}
	return n
}

// lastReply returns the latest reply time as an offset from the start.
func (st *stream) lastReply() time.Duration {
	var last time.Duration
	for i, ns := range st.lat {
		if ns >= 0 {
			if t := st.sched.due(i) + time.Duration(ns); t > last {
				last = t
			}
		}
	}
	return last
}
