package main

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/resp"
)

func TestScheduleDueIsTickAligned(t *testing.T) {
	s := newSchedule(2500, time.Millisecond, time.Second) // one request every 400µs
	if s.count != 2500 {
		t.Fatalf("count = %d, want 2500", s.count)
	}
	// Ideal times 0, .4, .8, 1.2, 1.6, 2.0, 2.4 ms round down to ticks.
	want := []time.Duration{0, 0, 0, 1, 1, 2, 2}
	for i, w := range want {
		if got := s.due(i); got != w*time.Millisecond {
			t.Errorf("due(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	for i := 1; i < s.count; i++ {
		if s.due(i) < s.due(i-1) {
			t.Fatalf("due(%d) = %v before due(%d) = %v", i, s.due(i), i-1, s.due(i-1))
		}
	}
}

// TestSendDueLateness drives the sender by hand: woken 5ms into the run,
// it must send every request due by then in one flush, and charge each
// with how late it left.
func TestSendDueLateness(t *testing.T) {
	s := newSchedule(1000, time.Millisecond, time.Second) // one per tick
	var wire bytes.Buffer
	st := newStream(s, func(w *resp.Writer, i int) { w.WriteInt(int64(i)) }, nil)
	st.w = resp.NewWriter(&wire)
	st.q = make(chan sent, 4)

	st.sendDue(time.Now(), 5*time.Millisecond)
	if st.next != 6 {
		t.Fatalf("sent %d requests, want 6 (due at 0..5ms)", st.next)
	}
	for i := 0; i < 6; i++ {
		if want := int64(5-i) * int64(time.Millisecond); st.lag[i] != want {
			t.Errorf("lag[%d] = %v, want %v", i, time.Duration(st.lag[i]), time.Duration(want))
		}
	}
	b := <-st.q
	if b.first != 0 || b.end != 6 {
		t.Fatalf("flush covers [%d,%d), want [0,6)", b.first, b.end)
	}
	if got := wire.String(); got != ":0\r\n:1\r\n:2\r\n:3\r\n:4\r\n:5\r\n" {
		t.Fatalf("wire = %q", got)
	}

	// Nothing is due yet at 5.5ms: no flush.
	st.sendDue(time.Now(), 5500*time.Microsecond)
	if st.next != 6 || len(st.q) != 0 {
		t.Fatalf("sent early: next=%d queued=%d", st.next, len(st.q))
	}
}

// stallServer answers every RESP command with :1, but holds its first
// reply back for stall.
func stallServer(t *testing.T, stall time.Duration, answer int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r, w := resp.NewReader(nc), resp.NewWriter(nc)
		var cmd resp.Command
		for i := 0; i < answer; i++ {
			if err := r.ReadCommand(&cmd); err != nil {
				return
			}
			if i == 0 {
				time.Sleep(stall)
			}
			w.WriteInt(1)
			if !r.Buffered() {
				if err := w.Flush(); err != nil {
					return
				}
			}
		}
		w.Flush()
	}()
	return l.Addr().String()
}

func ping(w *resp.Writer, _ int) { w.WriteCommand("PING") }

// TestOpenLoopChargesStalls: a server stall delays every request due
// during it, and each is timed from its due time, not from when the
// stalled server finally read it.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	addr := stallServer(t, stall, 1<<30)
	s := newSchedule(1000, time.Millisecond, 100*time.Millisecond)
	st := newStream(s, ping, func(int, resp.Value) bool { return true })
	var traceStart, traceStop time.Time
	trace := func(start time.Time, stop <-chan struct{}) error {
		traceStart = start
		<-stop
		traceStop = time.Now()
		return nil
	}
	if err := runStreams(addr, []*stream{st}, time.Second, trace); err != nil {
		t.Fatal(err)
	}
	// The trace ran beside the streams, from their start until the last
	// reply.
	if last := traceStart.Add(st.lastReply()); traceStop.Before(last) {
		t.Fatalf("trace stopped at %v, before the last reply at %v", traceStop, last)
	}
	if err := st.err(); err != nil || st.unanswered() != 0 || st.errs != 0 {
		t.Fatalf("err=%v unanswered=%d errs=%d", err, st.unanswered(), st.errs)
	}
	// Request i is due at i ms and cannot be answered before the stall
	// ends at about 60ms.
	for i := 0; i < 50; i++ {
		floor := stall - s.due(i) - 5*time.Millisecond
		if got := time.Duration(st.lat[i]); got < floor {
			t.Fatalf("lat[%d] = %v, want at least %v", i, got, floor)
		}
	}
	lat := st.latencies(func(time.Duration) bool { return true })
	if len(lat) != s.count {
		t.Fatalf("%d latencies, want %d", len(lat), s.count)
	}
}

// TestOpenLoopCountsUnanswered: requests the server never answers are
// reported, not dropped from the accounting.
func TestOpenLoopCountsUnanswered(t *testing.T) {
	addr := stallServer(t, 0, 10) // answers 10, then hangs up
	s := newSchedule(1000, time.Millisecond, 50*time.Millisecond)
	st := newStream(s, ping, func(int, resp.Value) bool { return true })
	if err := runStreams(addr, []*stream{st}, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if st.err() == nil {
		t.Fatal("no transport error after the server hung up")
	}
	if got := st.unanswered(); got != s.count-10 {
		t.Fatalf("unanswered = %d, want %d", got, s.count-10)
	}
}
