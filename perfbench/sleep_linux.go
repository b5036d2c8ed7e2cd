package main

import (
	"runtime"
	"syscall"
	"time"
)

// preciseTimer prepares the calling goroutine to pace the open loop: it
// pins the goroutine to its thread and sets that thread's timer slack to
// 1 ns. The Go runtime rounds sleeps shorter than a millisecond up to a
// whole one, which would add most of a tick of lateness to every
// request; nanosleep(2) on a zero-slack thread wakes within tens of µs.
// The returned function undoes both.
func preciseTimer() (release func()) {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: default slack only costs precision
	return func() {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0) // 0 restores the default
		runtime.UnlockOSThread()
	}
}

// preciseSleep blocks the thread for d.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR wakes early; the caller re-checks the clock
}
