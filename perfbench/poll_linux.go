package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinPoller locks the calling goroutine to its OS thread and sets that
// thread's timer slack to 1ns, so nanosleep wakes within microseconds of
// the asked interval instead of the default 50µs slack (time.Sleep rounds
// sub-millisecond sleeps up much further). The returned function undoes
// the lock.
func pinPoller() (unpin func()) {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	// The thread's slack stays low after unlock; the runtime may hand the
	// thread to other goroutines, which is harmless.
	return runtime.UnlockOSThread
}

// pollSleep blocks the calling thread for about d without spinning.
func pollSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
