package datacutter

import (
	"fmt"

	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// Runtime instantiates filter groups on a cluster over one transport
// fabric.
type Runtime struct {
	cl      *cluster.Cluster
	fab     *core.Fabric
	nextSvc int
}

// NewRuntime returns a runtime over the given cluster and fabric.
func NewRuntime(cl *cluster.Cluster, fab *core.Fabric) *Runtime {
	return &Runtime{cl: cl, fab: fab, nextSvc: 1000}
}

// filterCopy is one transparent copy of a filter.
type filterCopy struct {
	spec    FilterSpec
	idx     int
	node    *cluster.Node
	filter  Filter
	inputs  map[string]*StreamReader
	outputs map[string]*StreamWriter

	// Crash-restart recovery state (armed by spec.CheckpointEvery > 0).
	// epoch counts incarnations beyond the first: the driver abandons a
	// unit of work when its captured epoch no longer matches (a restart
	// superseded it).
	epoch int
	// done marks the copy finished for group accounting; a restart hook
	// firing after completion is a no-op.
	done bool
	// ckpt is the copy's durable progress watermark.
	ckpt checkpoint
	// restartedAt and recoveredAt bracket the most recent outage for
	// MTTR reporting (recoveredAt is the new incarnation's first
	// delivery, or its completion when it finished vacuously).
	restartedAt sim.Time
	recoveredAt sim.Time
}

// recoverable reports whether crash-restart recovery is armed for this
// copy.
func (fc *filterCopy) recoverable() bool { return fc.spec.CheckpointEvery > 0 }

// Group is an instantiated filter group.
type Group struct {
	rt       *Runtime
	spec     GroupSpec
	copies   []*filterCopy
	byName   map[string][]*filterCopy
	setup    *sim.Barrier
	doneLeft int
	doneSig  *sim.Signal
	errs     []error
	// listeners kept open past initial wiring for redial-armed streams;
	// closed when the group finishes.
	listeners []core.Listener
}

// Instantiate builds the filter copies, binds every logical stream's
// point-to-point connections (the runtime establishes all connections
// before execution starts, as DataCutter does) and returns the group.
// Call Start to begin processing units of work.
func (rt *Runtime) Instantiate(spec GroupSpec) *Group {
	k := rt.cl.Kernel()
	g := &Group{
		rt:      rt,
		spec:    spec,
		byName:  make(map[string][]*filterCopy),
		doneSig: sim.NewSignal(k),
	}
	g.doneSig.SetLabel("datacutter/done")
	for fi := range spec.Filters {
		fs := spec.Filters[fi]
		if len(fs.Placement) == 0 {
			panic("datacutter: filter " + fs.Name + " has no placement")
		}
		if fs.InboxDepth == 0 {
			fs.InboxDepth = 2
		}
		for i, nodeName := range fs.Placement {
			node := rt.cl.Node(nodeName)
			if node == nil {
				panic(fmt.Sprintf("datacutter: unknown node %q for filter %s", nodeName, fs.Name))
			}
			fc := &filterCopy{
				spec:    fs,
				idx:     i,
				node:    node,
				filter:  fs.New(i),
				inputs:  make(map[string]*StreamReader),
				outputs: make(map[string]*StreamWriter),
			}
			g.copies = append(g.copies, fc)
			g.byName[fs.Name] = append(g.byName[fs.Name], fc)
		}
	}
	g.doneLeft = len(g.copies)

	// Count connection-setup arrivals: one per side per connection.
	totalConns := 0
	for _, ss := range spec.Streams {
		totalConns += len(g.byName[ss.From]) * len(g.byName[ss.To])
	}
	if totalConns == 0 {
		// Degenerate single-filter groups still need a fired barrier.
		g.setup = sim.NewBarrier(k, 1)
		g.setup.SetLabel("datacutter/setup")
		g.setup.Arrive()
	} else {
		g.setup = sim.NewBarrier(k, 2*totalConns)
		g.setup.SetLabel("datacutter/setup")
	}

	for si := range spec.Streams {
		g.wireStream(spec.Streams[si])
	}
	return g
}

// wireStream connects every producer copy to every consumer copy of
// one logical stream.
func (g *Group) wireStream(ss StreamSpec) {
	rt := g.rt
	k := rt.cl.Kernel()
	prods := g.byName[ss.From]
	conss := g.byName[ss.To]
	if len(prods) == 0 || len(conss) == 0 {
		panic(fmt.Sprintf("datacutter: stream %s references unknown filters %s -> %s", ss.Name, ss.From, ss.To))
	}
	// Recovery arming is only coherent when every input stream can be
	// re-established: a restarted copy's producers come back through the
	// redial path, so CheckpointEvery without RedialAttempts would strand
	// the new incarnation with no way to be fed.
	if conss[0].recoverable() && ss.RedialAttempts <= 0 {
		panic(fmt.Sprintf("datacutter: filter %s arms CheckpointEvery but input stream %s has no RedialAttempts", ss.To, ss.Name))
	}

	// Exactly-once state is per logical stream, shared across copies:
	// one sequence source for every producer copy (uniqueness across the
	// stream) and one delivery ledger for every consumer copy (failover
	// re-dispatch crosses copies).
	var ledger map[uint64]struct{}
	var seqSrc *uint64
	if ss.ExactlyOnce {
		ledger = make(map[uint64]struct{})
		seqSrc = new(uint64)
	}

	writers := make([]*StreamWriter, len(prods))
	for i, pc := range prods {
		w := &StreamWriter{
			spec:    ss,
			targets: make([]*target, len(conss)),
			ackCond: sim.NewCond(k),
			ep:      rt.fab.Endpoint(pc.node.Name()),
			seqSrc:  seqSrc,
		}
		w.ackCond.SetLabel("datacutter/ack-credit")
		if ss.RedialAttempts > 0 {
			w.redialPol = core.DefaultRetryPolicy(ss.RedialSeed ^ int64(i+1))
			w.redialPol.Attempts = ss.RedialAttempts
		}
		if _, dup := pc.outputs[ss.Name]; dup {
			panic("datacutter: duplicate stream name " + ss.Name)
		}
		pc.outputs[ss.Name] = w
		writers[i] = w
	}

	for j, cc := range conss {
		r := &StreamReader{
			spec:        ss,
			incarnation: newIncarnation(k, cc.spec.InboxDepth, len(prods), 0),
			ledger:      ledger,
			depth:       cc.spec.InboxDepth,
		}
		if _, dup := cc.inputs[ss.Name]; dup {
			panic("datacutter: duplicate stream name " + ss.Name)
		}
		cc.inputs[ss.Name] = r

		svc := rt.nextSvc
		rt.nextSvc++
		listener := rt.fab.Endpoint(cc.node.Name()).Listen(svc)

		// Acceptor: one inbound connection per producer copy. With
		// redial armed it keeps accepting replacement connections (the
		// group closes the listener when it finishes); every accepted
		// connection — original or replacement — gets the stream's
		// OpTimeout armed.
		j := j
		redial := ss.RedialAttempts > 0
		if redial {
			g.listeners = append(g.listeners, listener)
		}
		k.Go(fmt.Sprintf("dc-accept/%s/%s.%d", ss.Name, ss.To, j), func(p *sim.Proc) {
			for n := 0; redial || n < len(prods); n++ {
				conn, err := listener.Accept(p)
				if err != nil {
					if n < len(prods) {
						g.errs = append(g.errs, err)
					}
					return
				}
				if ss.OpTimeout > 0 {
					conn.SetTimeout(ss.OpTimeout)
				}
				k.Go(fmt.Sprintf("dc-read/%s/%s.%d.%d", ss.Name, ss.To, j, n), r.connReaderLoop(&inbound{conn: conn}))
				if n < len(prods) {
					g.setup.Arrive()
				}
			}
			listener.Close()
		})

		// Dialers: each producer copy connects to this consumer copy.
		for i, pc := range prods {
			i, pc := i, pc
			w := writers[i]
			t := &target{raddr: cc.node.Name(), svc: svc}
			w.targets[j] = t
			k.Go(fmt.Sprintf("dc-dial/%s/%s.%d->%s.%d", ss.Name, ss.From, i, ss.To, j), func(p *sim.Proc) {
				conn, err := rt.fab.Endpoint(pc.node.Name()).Dial(p, t.raddr, svc)
				if err != nil {
					g.errs = append(g.errs, err)
					return
				}
				w.install(t, conn)
				if ss.reverse() {
					k.Go(fmt.Sprintf("dc-ack/%s/%s.%d<-%s.%d", ss.Name, ss.From, i, ss.To, j), w.ackReaderLoop(t))
				}
				g.setup.Arrive()
			})
		}
	}
}

// Start launches every filter copy's driver for the given number of
// units of work. Drivers wait for all stream connections first.
// Recovery-armed copies additionally register a restart hook on their
// node: a crash unwinds the incarnation, and fault.NodeRestart spawns
// the next one from the copy's checkpoint.
func (g *Group) Start(uows int) {
	if uows <= 0 {
		panic("datacutter: Start needs a positive unit-of-work count")
	}
	k := g.rt.cl.Kernel()
	for _, fc := range g.copies {
		fc := fc
		if fc.recoverable() {
			g.armRestart(fc, uows)
		}
		k.Go(fmt.Sprintf("dc-filter/%s.%d", fc.spec.Name, fc.idx), func(p *sim.Proc) {
			g.setup.Wait(p)
			g.drive(p, fc, uows, 0, 0)
		})
	}
}

// drive runs one incarnation of a filter copy, from unit of work
// `from` under incarnation `epoch`. It returns without touching group
// accounting when a crash parks the copy (a later restart resumes it)
// or when a restart superseded this incarnation while its proc was
// parked; it completes the copy otherwise.
func (g *Group) drive(p *sim.Proc, fc *filterCopy, uows, epoch, from int) {
	k := g.rt.cl.Kernel()
	ctx := &Context{
		p:       p,
		node:    fc.node,
		name:    fc.spec.Name,
		copyIdx: fc.idx,
		copies:  len(g.byName[fc.spec.Name]),
		inputs:  fc.inputs,
		outputs: fc.outputs,
	}
	if fc.recoverable() {
		ctx.fc = fc
		ctx.epoch = epoch
	}
	for uow := from; uow < uows; uow++ {
		if fc.epoch != epoch {
			return
		}
		if fc.recoverable() && fc.node.Failed() {
			g.parkCrashed(p, fc)
			return
		}
		ctx.uow = uow
		detail := fc.spec.Name
		if hpsmon.Enabled(k) {
			detail = fmt.Sprintf("%s.%d uow=%d", fc.spec.Name, fc.idx, uow)
		}
		sc := hpsmon.Begin(p, "datacutter", "uow", detail)
		crashed, err := g.stepRecover(ctx, fc, uow)
		sc.End()
		if fc.epoch != epoch {
			// A restart superseded this incarnation while its proc was
			// parked (the inbox closure woke it into a vacuous return).
			// Its result is void: counting it or advancing the shared
			// checkpoint would corrupt the live incarnation's state.
			return
		}
		if crashed {
			g.parkCrashed(p, fc)
			return
		}
		if err != nil {
			hpsmon.Count(k, "datacutter", "uow.failed", 1)
			g.errs = append(g.errs, err)
			break
		}
		hpsmon.Count(k, "datacutter", "uow.completed", 1)
		g.maybeCheckpoint(p, fc, uow+1)
	}
	if fc.epoch != epoch {
		return
	}
	g.finishCopy(p, fc)
}

// stepRecover runs one unit of work, converting the crashUnwind
// sentinel of a recovery-armed copy into a flag instead of letting it
// propagate. Non-recoverable copies never see the sentinel (their
// Compute halts on the dead node forever, the pre-recovery contract).
func (g *Group) stepRecover(ctx *Context, fc *filterCopy, uow int) (crashed bool, err error) {
	if fc.recoverable() {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := v.(crashUnwind); ok {
					crashed = true
					return
				}
				panic(v)
			}
		}()
	}
	return false, g.step(ctx, fc, uow)
}

// parkCrashed retires a crashed incarnation without touching group
// accounting: the copy is down, not done. A later restart spawns the
// next incarnation from the checkpoint; absent one, the group never
// reports the copy finished — the pre-recovery semantics of a crash,
// minus the forever-parked proc.
func (g *Group) parkCrashed(p *sim.Proc, fc *filterCopy) {
	hpsmon.Instant(p, "datacutter", "copy-down", fc.spec.Name)
}

// finishCopy completes a copy: closes its outputs, settles recovery
// bookkeeping and decrements the group's outstanding count exactly
// once.
func (g *Group) finishCopy(p *sim.Proc, fc *filterCopy) {
	for _, w := range fc.outputs {
		w.Close(p)
	}
	if fc.done {
		return
	}
	fc.done = true
	if fc.restartedAt > 0 && fc.recoveredAt == 0 {
		fc.recoveredAt = p.Now()
	}
	if fc.recoverable() {
		// The copy is complete; close its inboxes (in spec order, for
		// determinism) so a late rejoin cannot park a producer against a
		// reader that will never read again — the producer's op timeout
		// then reclaims and accounts the work.
		for _, ss := range g.spec.Streams {
			if ss.To != fc.spec.Name {
				continue
			}
			r := fc.inputs[ss.Name]
			r.inbox.Close()
			r.graceTimer.Stop()
		}
	}
	g.doneLeft--
	if g.doneLeft == 0 {
		for _, l := range g.listeners {
			l.Close()
		}
		g.doneSig.Fire(nil)
	}
}

// maybeCheckpoint saves the copy's unit-of-work watermark when the
// checkpoint interval has elapsed. next is the first unit the next
// incarnation would have to redo: the driver checkpoints only at
// unit-of-work boundaries, after Finalize returned, so everything
// below the watermark is fully processed and flushed downstream.
func (g *Group) maybeCheckpoint(p *sim.Proc, fc *filterCopy, next int) {
	if !fc.recoverable() {
		return
	}
	if p.Now() < fc.ckpt.at+fc.spec.CheckpointEvery {
		return
	}
	fc.ckpt = checkpoint{at: p.Now(), next: next}
	hpsmon.Count(p.Kernel(), "datacutter", "ckpt.saved", 1)
}

// armRestart registers the copy's restart hook: when the hosting node
// restarts, the hook retires the crashed incarnation (bumping the
// epoch so its zombie proc unwinds if still live), rewinds every input
// stream to the checkpoint, asks the producers to rejoin, and spawns
// the next incarnation. Runs in kernel-callback context: nothing here
// blocks.
func (g *Group) armRestart(fc *filterCopy, uows int) {
	k := g.rt.cl.Kernel()
	fc.node.OnRestart(func() {
		if fc.done {
			return
		}
		fc.epoch++
		epoch := fc.epoch
		fc.restartedAt = k.Now()
		fc.recoveredAt = 0
		from := fc.ckpt.next
		hpsmon.Count(k, "datacutter", "copy.restarts", 1)
		hpsmon.InstantK(k, "datacutter", "copy-restart", fc.spec.Name)
		note := func() {
			if fc.recoveredAt == 0 {
				fc.recoveredAt = k.Now()
			}
		}
		for _, ss := range g.spec.Streams {
			if ss.To != fc.spec.Name {
				continue
			}
			r := fc.inputs[ss.Name]
			expected := 0
			for _, pc := range g.byName[ss.From] {
				if pc.outputs[ss.Name].requestRejoin(fc.idx) {
					expected++
				}
			}
			r.resetForRejoin(k, from, expected, note)
		}
		k.Go(fmt.Sprintf("dc-filter/%s.%d.r%d", fc.spec.Name, fc.idx, epoch), func(p *sim.Proc) {
			g.setup.Wait(p)
			g.drive(p, fc, uows, epoch, from)
		})
	})
}

func (g *Group) step(ctx *Context, fc *filterCopy, uow int) error {
	if err := fc.filter.Init(ctx); err != nil {
		return fmt.Errorf("%s.%d init uow %d: %w", fc.spec.Name, fc.idx, uow, err)
	}
	if err := fc.filter.Process(ctx); err != nil {
		return fmt.Errorf("%s.%d process uow %d: %w", fc.spec.Name, fc.idx, uow, err)
	}
	if err := fc.filter.Finalize(ctx); err != nil {
		return fmt.Errorf("%s.%d finalize uow %d: %w", fc.spec.Name, fc.idx, uow, err)
	}
	return nil
}

// Done returns a signal fired when every filter copy has finished all
// units of work.
func (g *Group) Done() *sim.Signal { return g.doneSig }

// Err returns the first error any copy reported, or nil.
func (g *Group) Err() error {
	if len(g.errs) == 0 {
		return nil
	}
	return g.errs[0]
}

// Copies returns the transparent copies of the named filter (for
// experiment instrumentation).
func (g *Group) Copies(filter string) int { return len(g.byName[filter]) }

// ReaderOf exposes a copy's input stream reader for instrumentation.
func (g *Group) ReaderOf(filter string, copy int, stream string) *StreamReader {
	return g.byName[filter][copy].inputs[stream]
}

// WriterOf exposes a copy's output stream writer for instrumentation.
func (g *Group) WriterOf(filter string, copy int, stream string) *StreamWriter {
	return g.byName[filter][copy].outputs[stream]
}

// RestartsOf reports how many restart incarnations a copy has run.
func (g *Group) RestartsOf(filter string, copy int) int {
	return g.byName[filter][copy].epoch
}

// RecoveryOf reports the most recent outage bracket of a copy: the
// restart instant and the recovery instant (the new incarnation's
// first delivery, or its completion when it finished vacuously; 0 if
// still recovering). MTTR for the copy is recoveredAt - restartedAt
// plus the crash-to-restart downtime the fault plan chose.
func (g *Group) RecoveryOf(filter string, copy int) (restartedAt, recoveredAt sim.Time) {
	fc := g.byName[filter][copy]
	return fc.restartedAt, fc.recoveredAt
}
