// Package device simulates the streaming many-core accelerators the paper
// evaluates on (NVIDIA Tesla M2090 GPUs). A Sim has NGPU devices, each with
// NSM streaming multiprocessors; logical blocks are assigned to devices and
// SMs with the paper's strided schedule (§4: "the blocks then iterate over
// the points in a strided fashion", "we divide the mesh into NGPU·NSM
// patches and evenly distribute them between the GPUs").
//
// The simulator is deterministic: each block carries a modeled cost derived
// from the exact per-block counters the evaluator collects, an SM's time is
// the sum of its blocks, a device's time is the max over its SMs, and the
// cluster time is the max over devices plus the two-stage reduction. This
// reproduces the paper's scaling behaviour (Fig. 14) from first principles
// on a host with any number of physical cores.
//
// This package remains the *model* of the paper's multi-device machine;
// internal/cluster is the real distributed deployment of the same
// decomposition — a coordinator partitioning the deterministic tiling
// across unstencild shard processes and merging their partials
// bit-identically.
package device

import (
	"fmt"

	"unstencil/internal/metrics"
)

// Modeled machine constants. The absolute values set the reported GFLOP/s
// scale and are calibrated loosely to the paper's Tesla M2090 (16 SMs,
// ~665 GFLOP/s double-precision peak); all experimental *shapes* come from
// the exact counters, not from these constants.
const (
	// DefaultSMs is the number of streaming multiprocessors per device.
	DefaultSMs = 16
	// SMFlopsPerSecond is the modeled throughput of one SM in
	// cost-units/second, calibrated so a 16-SM device peaks near the
	// paper's measured 345 GFLOP/s for the per-element linear case.
	SMFlopsPerSecond = 22e9
	// CoalescedWordCost is the modeled cost (flop-equivalents) of reading
	// one coalesced 8-byte word.
	CoalescedWordCost = 2
	// UncoalescedWordCost is the modeled cost of reading one scattered
	// 8-byte word; the 8x ratio over coalesced reflects the serialization
	// of scattered transactions on streaming architectures.
	UncoalescedWordCost = 16
	// ScatteredLoadCost is the modeled latency of one dependent scattered
	// load transaction in flop-equivalents (Fermi-class global-memory
	// latency is several hundred cycles, and such loads cannot be hidden
	// when every SIMD lane fetches a different location).
	ScatteredLoadCost = 900
)

// Occupancy models the register-pressure throughput loss at higher
// polynomial orders: the integration kernel stores O((P+1)²) intermediate
// values (paper §5.1), which collapses the number of resident warps and
// with it the achievable throughput. Calibrated so the modeled GFLOP/s
// ratios across P ∈ {1,2,3} track the paper's Figs. 11–12 (roughly
// 1 : 0.25 : 0.1). Both schemes run the same integration kernel, so
// occupancy cancels in scheme-to-scheme speedups.
func Occupancy(p int) float64 {
	modes := float64((p + 1) * (p + 2) / 2)
	r := 3 / modes
	return r * r
}

// Cost converts a block's exact counters into modeled execution cost units
// (flop-equivalents).
func Cost(c *metrics.Counters) float64 {
	coalesced := float64(c.BytesRead-c.BytesUncoalesced) / 8
	scattered := float64(c.BytesUncoalesced) / 8
	return float64(c.Flops) +
		CoalescedWordCost*coalesced +
		UncoalescedWordCost*scattered +
		ScatteredLoadCost*float64(c.ScatteredLoads)
}

// Seconds converts cost units to modeled seconds on one SM.
func Seconds(units float64) float64 { return units / SMFlopsPerSecond }

// GFlops reports the modeled achieved GFLOP/s: algorithmic flops divided by
// modeled wall time.
func GFlops(flops uint64, modeledSeconds float64) float64 {
	if modeledSeconds <= 0 {
		return 0
	}
	return float64(flops) / modeledSeconds / 1e9
}

// Sim is a cluster of identical streaming devices.
type Sim struct {
	Devices int // number of devices (GPUs)
	SMs     int // streaming multiprocessors per device
}

// NewSim returns a Sim with the given device count and DefaultSMs per
// device.
func NewSim(devices int) Sim { return Sim{Devices: devices, SMs: DefaultSMs} }

// Timing is the modeled execution breakdown of one launch.
type Timing struct {
	// DeviceCompute is the modeled compute time (units) of each device: the
	// max over its SMs of the summed block costs.
	DeviceCompute []float64
	// Compute is the cluster compute time: max over devices.
	Compute float64
	// Reduction is the modeled two-stage reduction time.
	Reduction float64
	// Total = Compute + Reduction.
	Total float64
}

// Run schedules blockCosts onto the cluster. Blocks are distributed to
// devices round-robin (even distribution, as in the paper's multi-GPU
// decomposition) and to SMs within a device round-robin (the strided block
// schedule). reductionUnits is the total cost of summing the partial
// solutions; stage one runs in parallel across devices and SMs, stage two
// merges one value per device.
func (s Sim) Run(blockCosts []float64, reductionUnits float64) Timing {
	if s.Devices < 1 || s.SMs < 1 {
		panic(fmt.Sprintf("device: invalid sim %+v", s))
	}
	t := Timing{DeviceCompute: make([]float64, s.Devices)}
	smTime := make([][]float64, s.Devices)
	for d := range smTime {
		smTime[d] = make([]float64, s.SMs)
	}
	for b, c := range blockCosts {
		d := b % s.Devices
		sm := (b / s.Devices) % s.SMs
		smTime[d][sm] += c
	}
	for d := range smTime {
		for _, v := range smTime[d] {
			if v > t.DeviceCompute[d] {
				t.DeviceCompute[d] = v
			}
		}
		if t.DeviceCompute[d] > t.Compute {
			t.Compute = t.DeviceCompute[d]
		}
	}
	// Two-stage reduction: stage one is spread across all SMs of all
	// devices; stage two is a serial merge of the per-device results.
	stage1 := reductionUnits / float64(s.Devices*s.SMs)
	stage2 := float64(s.Devices) * CoalescedWordCost
	t.Reduction = stage1 + stage2
	t.Total = t.Compute + t.Reduction
	return t
}

// RunCounters is a convenience wrapper converting per-block counters to
// costs before scheduling.
func (s Sim) RunCounters(blocks []metrics.Counters, reductionUnits float64) Timing {
	costs := make([]float64, len(blocks))
	for i := range blocks {
		costs[i] = Cost(&blocks[i])
	}
	return s.Run(costs, reductionUnits)
}

// Speedup returns t1/tN given two timings, the conventional strong-scaling
// metric.
func Speedup(t1, tn Timing) float64 {
	if tn.Total <= 0 {
		return 0
	}
	return t1.Total / tn.Total
}
