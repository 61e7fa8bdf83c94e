package experiments

import (
	"fmt"
	"math"
	"sync"

	"hpsockets/internal/core"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/profile"
	"hpsockets/internal/sim"
	"hpsockets/internal/stats"
	"hpsockets/internal/vizapp"
)

// pipeCell is one pipeline measurement: the whole input of
// vizapp.RunPipeline, plus the name its observability cell is filed
// under ("" leaves the cell uncollected).
type pipeCell struct {
	cfg     vizapp.PipelineConfig
	queries []vizapp.Query
	name    string
}

// key renders the cell's whole input. The hook is observability, not
// input: two cells that differ only in it compute the same result.
func (c pipeCell) key() string {
	cfg := c.cfg
	cfg.Hook = nil
	return fmt.Sprintf("%#v|%v", cfg, c.queries)
}

// cellCache holds the pipeline results of one run. DefaultOptions
// creates it and every copy of that Options value shares it, so a
// figure reuses the cells an earlier figure of the same run computed,
// while a fresh Options starts cold. Results are pure functions of the
// key, so filling the cache in any order and at any worker count
// cannot change a value read from it.
type cellCache struct {
	mu   sync.Mutex
	res  map[string]vizapp.Result
	runs int // pipelines run to fill res
}

func newCellCache() *cellCache { return &cellCache{res: map[string]vizapp.Result{}} }

// runCells returns the pipeline result of every cell in input order.
// Duplicate and already-cached inputs are dropped before the rest fan
// out across the workers, so each distinct input runs once per run.
func (o Options) runCells(cells []pipeCell) []vizapp.Result {
	cache := o.cells
	keys := make([]string, len(cells))
	var todo []int
	queued := map[string]bool{}
	cache.mu.Lock()
	for i, c := range cells {
		keys[i] = c.key()
		if _, ok := cache.res[keys[i]]; !ok && !queued[keys[i]] {
			queued[keys[i]] = true
			todo = append(todo, i)
		}
	}
	cache.mu.Unlock()

	fresh := make([]vizapp.Result, len(todo))
	o.parMap(len(todo), func(j int) { fresh[j] = o.runCell(cells[todo[j]]) })

	out := make([]vizapp.Result, len(cells))
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.runs += len(todo)
	for j, i := range todo {
		cache.res[keys[i]] = fresh[j]
	}
	for i, k := range keys {
		out[i] = cache.res[k]
	}
	return out
}

// runCell runs one pipeline cell, instrumented when it is named.
func (o Options) runCell(c pipeCell) vizapp.Result {
	col, prof := o.instrumentCell(c.name, &c.cfg)
	res := vizapp.RunPipeline(c.cfg, c.queries)
	if res.Err != nil {
		panic("experiments: pipeline run failed: " + res.Err.Error())
	}
	o.adoptCell(col, prof)
	return res
}

func (o Options) pipeConfig(kind core.Kind, block int, compute, sequential bool) vizapp.PipelineConfig {
	cfg := vizapp.DefaultPipelineConfig(kind, block)
	cfg.ImageBytes = o.ImageBytes
	cfg.Chains = o.Chains
	cfg.Sequential = sequential
	if compute {
		cfg.ComputePerByte = o.ComputePerByte
	}
	return cfg
}

// repeat returns q n times.
func repeat(q vizapp.Query, n int) []vizapp.Query {
	qs := make([]vizapp.Query, n)
	for i := range qs {
		qs[i] = q
	}
	return qs
}

// cellName is the observability name of a rate or latency cell.
func cellName(measure string, kind core.Kind, compute bool, block int) string {
	c := "nc"
	if compute {
		c = "lc"
	}
	return fmt.Sprintf("pipe/%s/%s/%s/b%d", measure, kind, c, block)
}

// rateCell is a steady-state throughput run: back-to-back complete
// updates at one distribution block size.
func (o Options) rateCell(kind core.Kind, compute bool, block int) pipeCell {
	cfg := o.pipeConfig(kind, block, compute, false)
	return pipeCell{cfg, repeat(cfg.CompleteQuery(), o.ThroughputQueries), cellName("rate", kind, compute, block)}
}

// latCell is a sequential stream of one-block partial updates at one
// block size.
func (o Options) latCell(kind core.Kind, compute bool, block int) pipeCell {
	cfg := o.pipeConfig(kind, block, compute, true)
	return pipeCell{cfg, repeat(vizapp.PartialQuery(), o.LatencyQueries), cellName("lat", kind, compute, block)}
}

// UpdateRate measures the steady-state complete-update rate (full
// updates per second) of the pipeline at one distribution block size.
func UpdateRate(o Options, kind core.Kind, compute bool, block int) float64 {
	return o.runCells([]pipeCell{o.rateCell(kind, compute, block)})[0].UpdatesPerSec()
}

// PartialLatency measures the mean response time of a sequential
// stream of one-block partial updates at one block size.
func PartialLatency(o Options, kind core.Kind, compute bool, block int) sim.Time {
	return o.runCells([]pipeCell{o.latCell(kind, compute, block)})[0].MeanResponse()
}

// instrumentCell builds the observability state for the named cell and
// hooks it into the cell's pipeline config: a telemetry collector when
// Telemetry is on, a profile cell (park ledger + span DAG) when
// Profile is on, both nil (and no hook) when both are off or the cell
// is unnamed. With both enabled the views share one collector: span
// collection only appends to the span/flow logs, so the rendered
// metrics tables are byte-identical with or without -profile.
func (o Options) instrumentCell(name string, cfg *vizapp.PipelineConfig) (*hpsmon.Collector, *profile.Cell) {
	if name == "" || (o.Telemetry == nil && o.Profile == nil) {
		return nil, nil
	}
	col := hpsmon.NewCollector(name, hpsmon.Options{Spans: o.Profile != nil})
	if o.Profile == nil {
		cfg.Hook = col.Attach
		return col, nil
	}
	led := profile.NewLedger()
	cfg.Hook = func(k *sim.Kernel) {
		col.Attach(k)
		led.Attach(k)
	}
	cell := &profile.Cell{Name: name, Ledger: led, Source: col}
	if o.Telemetry == nil {
		return nil, cell
	}
	return col, cell
}

// adoptCell files a finished cell's observability state into the
// enabled sets.
func (o Options) adoptCell(col *hpsmon.Collector, cell *profile.Cell) {
	if col != nil && o.Telemetry != nil {
		o.Telemetry.Adopt(col)
	}
	if cell != nil && o.Profile != nil {
		o.Profile.Adopt(cell)
	}
}

// measureLadder runs the full ladder grid (rate and latency, both
// transports, every ladder block) through the cell cache, so the
// threshold searches after it are cache reads. The grid is the same at
// every worker count and with or without observers, and so is the
// collected cell set.
func (o Options) measureLadder(compute bool) {
	var cells []pipeCell
	for _, kind := range []core.Kind{core.KindTCP, core.KindSocketVIA} {
		for _, b := range o.BlockLadder {
			cells = append(cells, o.rateCell(kind, compute, b), o.latCell(kind, compute, b))
		}
	}
	o.runCells(cells)
}

// minBlockForRate finds the smallest ladder block size whose pipeline
// update rate meets the target, mirroring the paper's "data chunking
// done to suit this requirement".
func minBlockForRate(o Options, kind core.Kind, compute bool, target float64) (int, bool) {
	for _, b := range o.BlockLadder {
		if UpdateRate(o, kind, compute, b) >= target {
			return b, true
		}
	}
	return 0, false
}

// maxBlockForLatency finds the largest ladder block whose partial
// update latency stays within the target.
func maxBlockForLatency(o Options, kind core.Kind, compute bool, target sim.Time) (int, bool) {
	best, ok := 0, false
	for _, b := range o.BlockLadder {
		if PartialLatency(o, kind, compute, b) <= target {
			best, ok = b, true
		}
	}
	return best, ok
}

// fig7Targets mirrors the paper's x axes: updates/sec guarantees from
// 4.0 (3.25 with computation) down to 2.0.
func fig7Targets(compute bool) []float64 {
	if compute {
		return []float64{3.25, 3, 2.75, 2.5, 2.25, 2}
	}
	return []float64{4, 3.75, 3.5, 3.25, 3, 2.75, 2.5, 2.25, 2}
}

// Fig7 reproduces Figure 7: average partial-update latency under a
// full-updates-per-second guarantee. The TCP series uses the block
// size TCP needs for the guarantee; plain SocketVIA runs with TCP's
// partitioning; SocketVIA (with DR) repartitions the dataset for its
// own bandwidth profile. Targets TCP cannot meet at any block size
// render as missing points, like TCP dropping off the paper's plot.
func Fig7(o Options, compute bool) *stats.Table {
	variant := "(No Computation)"
	if compute {
		variant = "(Linear Computation)"
	}
	t := &stats.Table{
		Title:  "Figure 7: Average Latency with Updates per Second Guarantees " + variant,
		XLabel: "updates_per_sec",
		YLabel: "average partial-update latency (us)",
		XFmt:   "%.2f",
	}
	targets := fig7Targets(compute)
	t.X = targets
	o.measureLadder(compute)
	maxBlock := o.BlockLadder[len(o.BlockLadder)-1]
	var tcpY, svY, drY []float64
	for _, target := range targets {
		bTCP, okTCP := minBlockForRate(o, core.KindTCP, compute, target)
		if okTCP {
			tcpY = append(tcpY, PartialLatency(o, core.KindTCP, compute, bTCP).Micros())
			svY = append(svY, PartialLatency(o, core.KindSocketVIA, compute, bTCP).Micros())
		} else {
			// TCP drops out; the TCP-oriented partitioning SocketVIA
			// inherits is the coarsest available.
			tcpY = append(tcpY, nan())
			svY = append(svY, PartialLatency(o, core.KindSocketVIA, compute, maxBlock).Micros())
		}
		if bSV, ok := minBlockForRate(o, core.KindSocketVIA, compute, target); ok {
			drY = append(drY, PartialLatency(o, core.KindSocketVIA, compute, bSV).Micros())
		} else {
			drY = append(drY, nan())
		}
	}
	t.AddSeries("TCP_us", tcpY)
	t.AddSeries("SocketVIA_us", svY)
	t.AddSeries("SocketVIA_DR_us", drY)
	return t
}

// fig8Targets are the paper's latency guarantees, 1000 us down to
// 100 us.
func fig8Targets() []sim.Time {
	var out []sim.Time
	for us := 1000; us >= 100; us -= 100 {
		out = append(out, sim.Time(us)*sim.Microsecond)
	}
	return out
}

// Fig8 reproduces Figure 8: achievable full updates per second under a
// partial-update latency guarantee.
func Fig8(o Options, compute bool) *stats.Table {
	variant := "(No Computation)"
	if compute {
		variant = "(Linear Computation)"
	}
	t := &stats.Table{
		Title:  "Figure 8: Updates per Second with Latency Guarantees " + variant,
		XLabel: "latency_guarantee_us",
		YLabel: "full updates per second",
	}
	targets := fig8Targets()
	for _, l := range targets {
		t.X = append(t.X, l.Micros())
	}
	o.measureLadder(compute)
	minBlock := o.BlockLadder[0]
	var tcpY, svY, drY []float64
	for _, l := range targets {
		bTCP, okTCP := maxBlockForLatency(o, core.KindTCP, compute, l)
		if okTCP {
			tcpY = append(tcpY, UpdateRate(o, core.KindTCP, compute, bTCP))
			svY = append(svY, UpdateRate(o, core.KindSocketVIA, compute, bTCP))
		} else {
			// TCP drops out entirely; TCP-oriented chunking collapses
			// to the finest grain.
			tcpY = append(tcpY, nan())
			svY = append(svY, UpdateRate(o, core.KindSocketVIA, compute, minBlock))
		}
		if bSV, ok := maxBlockForLatency(o, core.KindSocketVIA, compute, l); ok {
			drY = append(drY, UpdateRate(o, core.KindSocketVIA, compute, bSV))
		} else {
			drY = append(drY, nan())
		}
	}
	t.AddSeries("TCP_ups", tcpY)
	t.AddSeries("SocketVIA_ups", svY)
	t.AddSeries("SocketVIA_DR_ups", drY)
	return t
}

func nan() float64 { return math.NaN() }
