package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// triadBytes is the size of each of the three STREAM arrays. The sheet for
// bandwidth measurements asks for arrays of at least four times the last-
// level cache; triadNote says so when this size falls short.
const triadBytes = 256 << 20

// spinIters fixes the work of the compute calibration loop: long enough
// (tens of milliseconds) that timer and scheduling jitter do not read as
// drift.
const spinIters = 25_000_000

// calibration is one reading of the host: sustainable single-thread memory
// bandwidth (STREAM triad; 0 when the triad was skipped) and the wall time
// of a fixed dependent multiply-add chain.
type calibration struct {
	TriadGBs float64
	SpinMS   float64
}

// spinSink keeps the compiler from discarding the calibration loops, and
// spinA, spinB — variables, not constants — from folding them.
var (
	spinSink float64
	spinA    = 0.999999
	spinB    = 1e-3
)

// spin runs a fixed dependent multiply-add chain five times and returns
// the median wall time in milliseconds. It touches no memory, so it moves
// only when the core itself is slower: frequency scaling or a neighbour on
// the same core.
func spin() float64 {
	var times [5]float64
	for k := range times {
		x, a, b := 0.5, spinA, spinB
		start := time.Now()
		for i := 0; i < spinIters; i++ {
			x = x*a + b
		}
		times[k] = msSince(start)
		spinSink = x
	}
	return median(times[:])
}

// triad measures a[i] = b[i] + s*c[i] over three triadBytes arrays on one
// thread — the apply kernels it is compared with run on one thread too —
// and returns the best of three passes in GB/s, counting the 24 bytes per
// element STREAM counts. The arrays are released before it returns.
func triad() float64 {
	n := triadBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1 << 62)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = min(best, time.Since(start))
	}
	spinSink = a[n/2]
	a, b, c = nil, nil, nil
	debug.FreeOSMemory()
	return 24 * float64(n) / best.Seconds() / 1e9
}

// calibrate reads the host once. The triad is the expensive half (three
// quarters of a GiB touched), so callers that do not report bandwidth
// skip it.
func calibrate(withTriad bool) calibration {
	c := calibration{SpinMS: spin()}
	if withTriad {
		c.TriadGBs = triad()
	}
	return c
}

// driftRatio is end ÷ start of the noisier of the two calibrations, read so
// that a value above 1 always means "the host got slower during the run".
func driftRatio(start, end calibration) float64 {
	d := ratio(end.SpinMS, start.SpinMS)
	if start.TriadGBs > 0 && end.TriadGBs > 0 {
		d = max(d, ratio(start.TriadGBs, end.TriadGBs))
	}
	return d
}

// llcBytes returns the size of cpu0's highest-level cache from sysfs, or 0
// where sysfs does not say.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, bestLevel int64
	for _, d := range dirs {
		level, err := strconv.ParseInt(readTrim(filepath.Join(d, "level")), 10, 64)
		if err != nil || level < bestLevel {
			continue
		}
		s := readTrim(filepath.Join(d, "size"))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		size, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		best, bestLevel = size*mult, level
	}
	return best
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// peakRSSMB returns this process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc does not provide it.
func peakRSSMB() float64 {
	for _, line := range strings.Split(readTrim("/proc/self/status"), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel returns the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostEnv is the environment block recorded next to every stored result.
type hostEnv struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	LLCBytes   int64  `json:"llc_bytes"`
	TriadBytes int64  `json:"triad_array_bytes"`
}

func readEnv() hostEnv {
	return hostEnv{
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		LLCBytes:   llcBytes(),
		TriadBytes: triadBytes,
	}
}

// gitCommit reads HEAD from the enclosing checkout without running git;
// the pipeline's checkouts are not repositories, so "unknown" is normal.
func gitCommit() string {
	head := readTrim(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = readTrim(filepath.Join(".git", ref))
	}
	if len(head) >= 12 {
		return head[:12]
	}
	return "unknown"
}

// triadNote says how far the bandwidth figure can be trusted on this host.
func triadNote(env hostEnv) string {
	if env.LLCBytes == 0 {
		return fmt.Sprintf("triad arrays 3 x %d MiB; last-level cache size unknown", triadBytes>>20)
	}
	note := fmt.Sprintf("triad arrays 3 x %d MiB, last-level cache %d MiB", triadBytes>>20, env.LLCBytes>>20)
	if triadBytes < 4*env.LLCBytes {
		note += "; arrays are below 4x LLC, so host.triad_gbs may include cache hits and operator.bw_fraction is indicative only"
	}
	return note
}
