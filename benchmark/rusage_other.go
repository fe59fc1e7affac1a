//go:build !(linux || darwin)

package main

import "time"

// cpuTime is unavailable here; loadgen.cpu_ms_per_op reads 0.
func cpuTime() time.Duration { return 0 }
