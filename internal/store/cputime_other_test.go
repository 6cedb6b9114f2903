//go:build !unix

package store

import "time"

var wallStart = time.Now()

// processCPU falls back to the wall clock where getrusage is unavailable.
func processCPU() time.Duration { return time.Since(wallStart) }
