// Package vizapp implements the paper's evaluation applications on
// top of the DataCutter runtime: the digitized-microscopy
// visualization server of Figure 5 (a 4-stage pipeline with three
// transparent copies per stage) and the software load balancer of
// Figure 6 (a data repository feeding heterogeneous compute nodes).
package vizapp

import (
	"fmt"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// PipelineConfig describes one visualization-server run.
type PipelineConfig struct {
	// Kind selects the transport (TCP or SocketVIA); Prof carries the
	// transports' configuration.
	Kind core.Kind
	Prof core.Profile
	// Chains is the number of transparent copies per pipeline stage
	// (3 in the paper).
	Chains int
	// ImageBytes is the data volume of one complete image (16 MB).
	ImageBytes int
	// BlockSize is the distribution block size the dataset is
	// partitioned into; each block is retrieved as a whole.
	BlockSize int
	// ComputePerByte is the per-stage processing cost (0 for the "no
	// computation" experiments, 18 ns/byte for the Virtual Microscope
	// figure).
	ComputePerByte sim.Time
	// Sequential gates each query on the completion of the previous
	// one (an interactive client); otherwise queries pipeline
	// back-to-back for throughput measurement.
	Sequential bool
	// InboxDepth bounds buffered blocks per filter copy (default 2).
	InboxDepth int
	// ArrivalPeriod, when non-zero, paces the offered load: query i
	// becomes available at virtual time i*ArrivalPeriod and the
	// repositories wait for it (an update-rate client instead of a
	// closed loop).
	ArrivalPeriod sim.Time
	// UpdatePeriod, when non-zero, arms the update-rate guarantee:
	// every block of query i carries the deadline
	// i*ArrivalPeriod + UpdatePeriod through all three streams
	// (requires ArrivalPeriod), and the Shed policy decides what
	// happens when the pipeline cannot keep it.
	UpdatePeriod sim.Time
	// Shed is the overload policy of all three streams (default Block:
	// pure backpressure).
	Shed datacutter.ShedPolicy
	// CreditWindow arms credit-based flow control on all three streams
	// (0 = transport backpressure only).
	CreditWindow int
	// Hook, when set, receives the simulation kernel before the run —
	// e.g. to attach an hpsmon collector with Collector.Attach.
	Hook func(k *sim.Kernel)
}

// DefaultPipelineConfig returns the paper's setup for the given
// transport and block size.
func DefaultPipelineConfig(kind core.Kind, blockSize int) PipelineConfig {
	return PipelineConfig{
		Kind:       kind,
		Prof:       core.CLANProfile(),
		Chains:     3,
		ImageBytes: 16 << 20,
		BlockSize:  blockSize,
	}
}

// Query is one unit of work: the number of distribution blocks it
// touches.
type Query struct {
	Blocks int
}

// CompleteBlocks reports the block count of a complete update for the
// configuration.
func (cfg PipelineConfig) CompleteBlocks() int {
	return (cfg.ImageBytes + cfg.BlockSize - 1) / cfg.BlockSize
}

// CompleteQuery returns a full-image update.
func (cfg PipelineConfig) CompleteQuery() Query { return Query{Blocks: cfg.CompleteBlocks()} }

// PartialQuery returns a one-block partial update.
func PartialQuery() Query { return Query{Blocks: 1} }

// ZoomQuery returns a query touching n chunks (clamped to a complete
// update).
func (cfg PipelineConfig) ZoomQuery(n int) Query {
	if max := cfg.CompleteBlocks(); n > max {
		n = max
	}
	return Query{Blocks: n}
}

// Result carries the per-query timings of a pipeline run.
type Result struct {
	// Start[i] is when the repositories began fetching query i;
	// Done[i] is when the visualization filter finished it.
	Start []sim.Time
	Done  []sim.Time
	// End is the simulation time when the whole group finished.
	End sim.Time
	// Utilization reports each node's mean CPU busy fraction over the
	// run — where the bottleneck sits.
	Utilization map[string]float64
	Err         error

	// Update-rate accounting, populated when UpdatePeriod is armed.
	// Deadlines[i] is query i's guarantee; Expected[i] the block count
	// of a complete update; Blocks[i] and DegradedBlocks[i] what the
	// visualization filter actually received.
	Deadlines      []sim.Time
	Expected       []int
	Blocks         []int
	DegradedBlocks []int
	// Aggregate shed counters over all streams: deadline-expired drops
	// at producers, inbox-shed (oldest/newest/stale) at consumers, and
	// blocks sent at reduced resolution.
	ShedSend     uint64
	ShedInbox    uint64
	DegradedSent uint64
}

// UpdateOutcome classifies one query against its guarantee.
type UpdateOutcome int

const (
	// Held: the complete update arrived inside the window.
	Held UpdateOutcome = iota
	// Partial: something arrived inside the window, but blocks were
	// shed or degraded — the paper's partial-update fallback.
	Partial
	// Missed: the update finished after its deadline (or delivered
	// nothing).
	Missed
)

// Outcome classifies query i (meaningful only with UpdatePeriod set).
func (r Result) Outcome(i int) UpdateOutcome {
	if r.Done[i] > r.Deadlines[i] || r.Blocks[i] == 0 {
		return Missed
	}
	if r.Blocks[i] < r.Expected[i] || r.DegradedBlocks[i] > 0 {
		return Partial
	}
	return Held
}

// HoldMissCounts tallies the outcomes of all queries.
func (r Result) HoldMissCounts() (held, partial, missed int) {
	for i := range r.Done {
		switch r.Outcome(i) {
		case Held:
			held++
		case Partial:
			partial++
		default:
			missed++
		}
	}
	return held, partial, missed
}

// ResponseTimes returns per-query response times.
func (r Result) ResponseTimes() []sim.Time {
	out := make([]sim.Time, len(r.Done))
	for i := range r.Done {
		out[i] = r.Done[i] - r.Start[i]
	}
	return out
}

// MeanResponse returns the mean response time, skipping the first
// query (pipeline warm-up).
func (r Result) MeanResponse() sim.Time {
	if len(r.Done) <= 1 {
		if len(r.Done) == 1 {
			return r.Done[0] - r.Start[0]
		}
		return 0
	}
	var sum sim.Time
	for i := 1; i < len(r.Done); i++ {
		sum += r.Done[i] - r.Start[i]
	}
	return sum / sim.Time(len(r.Done)-1)
}

// UpdatesPerSec returns the steady-state completion rate at the
// visualization filter, skipping the first completion (pipeline fill).
func (r Result) UpdatesPerSec() float64 {
	n := len(r.Done)
	if n < 3 {
		if n == 2 {
			return 1 / (r.Done[1] - r.Done[0]).Seconds()
		}
		return 0
	}
	span := (r.Done[n-1] - r.Done[1]).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(n-2) / span
}

// pipelineApp is the shared state of one run.
type pipelineApp struct {
	cfg     PipelineConfig
	queries []Query
	start   []sim.Time
	done    []sim.Time

	// update-rate accounting (UpdatePeriod armed): blocks and degraded
	// blocks the visualization filter received per query.
	blocks   []int
	degraded []int

	// sequential-mode gating: an interactive client submits query i
	// only after query i-1 completed.
	completed int
	gate      *sim.Cond
}

// deadline returns query uow's guarantee (0 when not armed).
func (app *pipelineApp) deadline(uow int) sim.Time {
	if app.cfg.UpdatePeriod == 0 {
		return 0
	}
	return sim.Time(uow)*app.cfg.ArrivalPeriod + app.cfg.UpdatePeriod
}

// RunPipeline executes the Figure 5 pipeline over the given query
// sequence and returns its timings.
func RunPipeline(cfg PipelineConfig, queries []Query) Result {
	if cfg.Chains <= 0 || cfg.BlockSize <= 0 || cfg.ImageBytes <= 0 {
		panic("vizapp: invalid pipeline config")
	}
	if len(queries) == 0 {
		panic("vizapp: no queries")
	}
	if cfg.UpdatePeriod > 0 && cfg.ArrivalPeriod == 0 {
		panic("vizapp: UpdatePeriod requires ArrivalPeriod")
	}
	k := sim.NewKernel()
	if cfg.Hook != nil {
		cfg.Hook(k)
	}
	net := netsim.New(k, cfg.Prof.Wire)
	cl := cluster.New(k, net)

	repoNodes := make([]string, cfg.Chains)
	f1Nodes := make([]string, cfg.Chains)
	f2Nodes := make([]string, cfg.Chains)
	for i := 0; i < cfg.Chains; i++ {
		repoNodes[i] = fmt.Sprintf("repo%d", i)
		f1Nodes[i] = fmt.Sprintf("f1n%d", i)
		f2Nodes[i] = fmt.Sprintf("f2n%d", i)
		cl.AddNode(repoNodes[i], cluster.DefaultConfig())
		cl.AddNode(f1Nodes[i], cluster.DefaultConfig())
		cl.AddNode(f2Nodes[i], cluster.DefaultConfig())
	}
	cl.AddNode("viz", cluster.DefaultConfig())

	fab := core.NewFabric(cl, cfg.Kind, cfg.Prof)
	rt := datacutter.NewRuntime(cl, fab)

	app := &pipelineApp{
		cfg:      cfg,
		queries:  queries,
		start:    make([]sim.Time, len(queries)),
		done:     make([]sim.Time, len(queries)),
		blocks:   make([]int, len(queries)),
		degraded: make([]int, len(queries)),
		gate:     sim.NewCond(k),
	}
	app.gate.SetLabel("vizapp/query-gate")

	stream := func(name, from, to string) datacutter.StreamSpec {
		return datacutter.StreamSpec{
			Name: name, From: from, To: to,
			Deadlines:    cfg.UpdatePeriod > 0,
			Shed:         cfg.Shed,
			CreditWindow: cfg.CreditWindow,
		}
	}
	spec := datacutter.GroupSpec{
		Filters: []datacutter.FilterSpec{
			{Name: "repo", New: app.newRepo, Placement: repoNodes, InboxDepth: cfg.InboxDepth},
			{Name: "clip", New: app.newRelay("s1", "s2"), Placement: f1Nodes, InboxDepth: cfg.InboxDepth},
			{Name: "subsample", New: app.newRelay("s2", "s3"), Placement: f2Nodes, InboxDepth: cfg.InboxDepth},
			{Name: "viz", New: app.newViz, Placement: []string{"viz"}, InboxDepth: cfg.InboxDepth},
		},
		Streams: []datacutter.StreamSpec{
			stream("s1", "repo", "clip"),
			stream("s2", "clip", "subsample"),
			stream("s3", "subsample", "viz"),
		},
	}
	g := rt.Instantiate(spec)
	g.Start(len(queries))
	end := k.RunAll()
	util := make(map[string]float64, len(cl.Nodes()))
	for _, node := range cl.Nodes() {
		util[node.Name()] = node.CPU().Utilization()
	}
	res := Result{Start: app.start, Done: app.done, End: end, Utilization: util, Err: g.Err()}
	if cfg.UpdatePeriod > 0 {
		res.Deadlines = make([]sim.Time, len(queries))
		res.Expected = make([]int, len(queries))
		for i, q := range queries {
			res.Deadlines[i] = app.deadline(i)
			for b := 0; b < q.Blocks; b++ {
				if app.blockBytes(b, q.Blocks) > 0 {
					res.Expected[i]++
				}
			}
		}
		res.Blocks = app.blocks
		res.DegradedBlocks = app.degraded
		for _, sn := range []string{"s1", "s2", "s3"} {
			var from string
			switch sn {
			case "s1":
				from = "repo"
			case "s2":
				from = "clip"
			default:
				from = "subsample"
			}
			var to string
			switch sn {
			case "s1":
				to = "clip"
			case "s2":
				to = "subsample"
			default:
				to = "viz"
			}
			for c := 0; c < g.Copies(from); c++ {
				w := g.WriterOf(from, c, sn)
				res.ShedSend += w.ShedAtSend()
				res.DegradedSent += w.DegradedAtSend()
			}
			for c := 0; c < g.Copies(to); c++ {
				res.ShedInbox += g.ReaderOf(to, c, sn).ShedTotal()
			}
		}
	}
	if !g.Done().Fired() && res.Err == nil {
		res.Err = fmt.Errorf("vizapp: pipeline deadlocked at %v", end)
	}
	return res
}

// repoFilter is one data-repository copy: it retrieves its share of
// the query's blocks and streams them down its chain.
type repoFilter struct {
	app  *pipelineApp
	copy int
}

func (app *pipelineApp) newRepo(copy int) datacutter.Filter {
	return &repoFilter{app: app, copy: copy}
}

// holdUntil sleeps to an absolute virtual time. Blocking goes through
// the explicit proc argument, per the sim discipline.
func holdUntil(p *sim.Proc, target sim.Time) { p.Sleep(target - p.Now()) }

func (f *repoFilter) Init(ctx *datacutter.Context) error {
	uow := ctx.UOW()
	if f.app.cfg.Sequential {
		for f.app.completed < uow {
			f.app.gate.Wait(ctx.Proc())
		}
	}
	if ap := f.app.cfg.ArrivalPeriod; ap > 0 {
		// Paced load: query uow arrives at uow*ap; wait for it.
		if target := sim.Time(uow) * ap; ctx.Now() < target {
			holdUntil(ctx.Proc(), target)
		}
	}
	if f.copy == 0 {
		f.app.start[uow] = ctx.Now()
	}
	return nil
}

func (f *repoFilter) Process(ctx *datacutter.Context) error {
	app := f.app
	q := app.queries[ctx.UOW()]
	out := ctx.Output("s1")
	_, chains := ctx.Copy()
	// Blocks are declustered round-robin across repository copies.
	for b := f.copy; b < q.Blocks; b += chains {
		size := app.blockBytes(b, q.Blocks)
		if size == 0 {
			continue
		}
		buf := &datacutter.Buffer{Size: size, Tag: int64(b), Deadline: app.deadline(ctx.UOW())}
		if err := out.WriteTo(ctx.Proc(), f.copy, buf); err != nil {
			return err
		}
	}
	return out.EndOfWork(ctx.Proc())
}

func (f *repoFilter) Finalize(ctx *datacutter.Context) error { return nil }

// blockBytes sizes block b of a query: every block is BlockSize except
// that a complete update's final block carries the image remainder.
func (app *pipelineApp) blockBytes(b, blocks int) int {
	cfg := app.cfg
	if blocks == cfg.CompleteBlocks() && b == blocks-1 {
		rem := cfg.ImageBytes - (blocks-1)*cfg.BlockSize
		return rem
	}
	return cfg.BlockSize
}

// relayFilter is a processing stage (Clipping, Subsampling): it
// applies the per-byte computation and forwards each block down its
// own chain.
type relayFilter struct {
	app     *pipelineApp
	copy    int
	in, out string
}

func (app *pipelineApp) newRelay(in, out string) func(int) datacutter.Filter {
	return func(copy int) datacutter.Filter {
		return &relayFilter{app: app, copy: copy, in: in, out: out}
	}
}

func (f *relayFilter) Init(ctx *datacutter.Context) error { return nil }

func (f *relayFilter) Process(ctx *datacutter.Context) error {
	in, out := ctx.Input(f.in), ctx.Output(f.out)
	for {
		b, ok := in.Read(ctx.Proc())
		if !ok {
			return out.EndOfWork(ctx.Proc())
		}
		if cpb := f.app.cfg.ComputePerByte; cpb > 0 {
			ctx.Compute(sim.Time(b.Size) * cpb)
		}
		// Stay on this copy's chain; converge when the next stage has
		// fewer copies (the single visualization filter). The deadline
		// and degradation travel with the block.
		target := f.copy % out.Targets()
		fwd := &datacutter.Buffer{Size: b.Size, Tag: b.Tag, Deadline: b.Deadline, Degraded: b.Degraded}
		if err := out.WriteTo(ctx.Proc(), target, fwd); err != nil {
			return err
		}
	}
}

func (f *relayFilter) Finalize(ctx *datacutter.Context) error { return nil }

// vizFilter is the visualization server: it consumes every block of
// the query, applies its computation and records the completion time.
type vizFilter struct {
	app *pipelineApp
}

func (app *pipelineApp) newViz(int) datacutter.Filter { return &vizFilter{app: app} }

func (f *vizFilter) Init(ctx *datacutter.Context) error { return nil }

func (f *vizFilter) Process(ctx *datacutter.Context) error {
	in := ctx.Input("s3")
	uow := ctx.UOW()
	for {
		b, ok := in.Read(ctx.Proc())
		if !ok {
			break
		}
		if cpb := f.app.cfg.ComputePerByte; cpb > 0 {
			ctx.Compute(sim.Time(b.Size) * cpb)
		}
		f.app.blocks[uow]++
		if b.Degraded {
			f.app.degraded[uow]++
		}
	}
	f.app.done[uow] = ctx.Now()
	f.app.completed = uow + 1
	f.app.gate.Broadcast()
	return nil
}

func (f *vizFilter) Finalize(ctx *datacutter.Context) error { return nil }
