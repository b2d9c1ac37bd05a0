package main

import (
	"syscall"
	"time"
)

// sleepUntil returns at t, give or take the kernel's timer slack (50 µs by
// default). The runtime's own timers wake an idle process in whole
// milliseconds, which would add about half a millisecond to every
// request an idle lane sends. So only the bulk of the wait goes through
// time.Sleep, and the last two milliseconds through nanosleep(2).
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep (EINTR) returns early: the loop sleeps
		// the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
