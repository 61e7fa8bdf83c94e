// Package experiments reproduces every figure of the paper's
// evaluation section. Each FigNN function runs the corresponding
// experiment on the simulated testbed and returns the same series the
// paper plots, as a renderable table.
//
// The experiments are deterministic: same options, same output.
package experiments

import (
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/profile"
	"hpsockets/internal/runner"
	"hpsockets/internal/sim"
)

// Options scales the experiments. Defaults reproduce the paper's
// setup; Quick shrinks repetition counts for use in unit tests and Go
// benchmarks.
type Options struct {
	// ImageBytes is the data volume of one complete image.
	ImageBytes int
	// Chains is the number of transparent copies per pipeline stage.
	Chains int
	// ComputePerByte is the linear computation cost used by the
	// "(Linear Computation)" variants.
	ComputePerByte sim.Time
	// ThroughputQueries is the number of back-to-back complete updates
	// per rate measurement.
	ThroughputQueries int
	// LatencyQueries is the number of sequential partial updates per
	// latency measurement.
	LatencyQueries int
	// MixQueries is the number of queries per Figure 9 point.
	MixQueries int
	// BlockLadder is the candidate set of distribution block sizes for
	// the repartitioning searches.
	BlockLadder []int
	// MicroIters is the ping-pong repetition count of the
	// micro-benchmarks; MicroMsgs the message count per bandwidth
	// point.
	MicroIters int
	MicroMsgs  int
	// LBBytes is the workload volume of the load-balancing runs.
	LBBytes int
	// Seed drives every randomized workload.
	Seed int64
	// Workers bounds the number of OS threads used to run independent
	// experiment cells concurrently. 0 or 1 runs everything
	// sequentially. Any value produces byte-identical figures: cells
	// are hermetic (own kernel, own seeded RNGs) and reassembled in
	// canonical order.
	Workers int
	// Telemetry, when non-nil, collects per-cell hpsmon metrics from
	// every rate and latency pipeline cell the run computes into the
	// set.
	Telemetry *hpsmon.Set
	// Profile, when non-nil, attaches a park ledger and a
	// span-collecting collector to every rate and latency pipeline
	// cell the run computes and adopts the resulting profile
	// (park/dispatch attribution + virtual-time critical path) into
	// the set.
	Profile *profile.Set

	// cells caches pipeline results for every copy of the Options
	// that DefaultOptions or QuickOptions returned.
	cells *cellCache
}

// parMap fans the n independent cells of one figure across o.Workers
// OS threads; with Workers <= 1 (or a single cell) everything runs
// inline in index order. fn must confine each cell to its own index:
// build its own simulation world and write only result slot i.
func (o Options) parMap(n int, fn func(i int)) {
	runner.Map(o.Workers, n, fn)
}

// DefaultOptions reproduces the paper's experimental parameters.
func DefaultOptions() Options {
	return Options{
		ImageBytes:        16 << 20,
		Chains:            3,
		ComputePerByte:    18 * sim.Nanosecond,
		ThroughputQueries: 4,
		LatencyQueries:    5,
		MixQueries:        10,
		BlockLadder: []int{
			512, 1 << 10, 2 << 10, 4 << 10, 8 << 10,
			16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
		},
		MicroIters: 50,
		MicroMsgs:  150,
		LBBytes:    16 << 20,
		Seed:       42,
		cells:      newCellCache(),
	}
}

// QuickOptions shrinks everything for tests and benches while keeping
// the paper's 16 MB image (the figures' rates depend on it).
func QuickOptions() Options {
	o := DefaultOptions()
	o.ThroughputQueries = 3
	o.LatencyQueries = 3
	o.MixQueries = 6
	o.BlockLadder = []int{2 << 10, 8 << 10, 32 << 10, 128 << 10}
	o.MicroIters = 20
	o.MicroMsgs = 60
	o.LBBytes = 4 << 20
	return o
}
