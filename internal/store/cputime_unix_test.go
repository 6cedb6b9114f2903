//go:build unix

package store

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time this process has used, user plus system.
// Time that other processes take on the machine does not advance it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
