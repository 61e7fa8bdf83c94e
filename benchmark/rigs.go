package main

import (
	"hpsockets/internal/cluster"
	"hpsockets/internal/core"
	"hpsockets/internal/datacutter"
	"hpsockets/internal/ktcp"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
	"hpsockets/internal/via"
	"hpsockets/internal/vizapp"
)

// testbed is the smallest cluster the transports run on: nodes "a" and
// "b" on one cLAN switch, with the paper's calibrated cost models.
type testbed struct {
	k    *sim.Kernel
	net  *netsim.Network
	cl   *cluster.Cluster
	a, b *cluster.Node
	prof core.Profile
}

func newTestbed(o *observers) *testbed {
	k := sim.NewKernel()
	o.attach(k)
	prof := core.CLANProfile()
	net := netsim.New(k, prof.Wire)
	cl := cluster.New(k, net)
	return &testbed{
		k: k, net: net, cl: cl, prof: prof,
		a: cl.AddNode("a", cluster.DefaultConfig()),
		b: cl.AddNode("b", cluster.DefaultConfig()),
	}
}

// pingResult is one ping-pong measurement: the virtual one-way latency
// and how many of the one-way messages arrived short or failed.
type pingResult struct {
	oneWay    sim.Time
	msgs, bad int64
}

// pingVIA bounces one message of size bytes between two raw VIs, iters
// round trips, one message in flight.
func pingVIA(o *observers, size, iters int) pingResult {
	tb := newTestbed(o)
	pa := via.NewProvider(tb.a, tb.net, tb.prof.VIA)
	pb := via.NewProvider(tb.b, tb.net, tb.prof.VIA)
	acc := pb.Listen(1)
	res := pingResult{msgs: int64(2 * iters)}
	var got int64
	arrived := func(c via.Completion) {
		if c.Status == via.StatusOK && c.Desc.XferLen == size {
			got++
		}
	}
	tb.k.Go("srv", func(p *sim.Proc) {
		scq, rcq := pb.NewCQ(), pb.NewCQ()
		vi, err := acc.Accept(p, scq, rcq)
		if err != nil {
			return
		}
		reg := pb.RegisterMem(p, 64*1024)
		for i := 0; i < iters; i++ {
			if vi.PostRecv(p, &via.Desc{Region: reg, Len: 64 * 1024}) != nil {
				return
			}
			arrived(rcq.Wait(p))
			if vi.PostSend(p, &via.Desc{Region: reg, Len: size}) != nil {
				return
			}
			scq.Wait(p)
		}
	})
	tb.k.Go("cli", func(p *sim.Proc) {
		scq, rcq := pa.NewCQ(), pa.NewCQ()
		vi := pa.NewVI(scq, rcq)
		if pa.Connect(p, vi, "b", 1) != nil {
			return
		}
		reg := pa.RegisterMem(p, 64*1024)
		p.Sleep(sim.Millisecond)
		start := p.Now()
		for i := 0; i < iters; i++ {
			if vi.PostRecv(p, &via.Desc{Region: reg, Len: 64 * 1024}) != nil ||
				vi.PostSend(p, &via.Desc{Region: reg, Len: size}) != nil {
				return
			}
			scq.Wait(p)
			arrived(rcq.Wait(p))
		}
		res.oneWay = (p.Now() - start) / sim.Time(2*iters)
	})
	tb.k.RunAll()
	res.bad = res.msgs - got
	return res
}

// pingConn is pingVIA through the sockets API of either transport.
func pingConn(o *observers, kind core.Kind, size, iters int) pingResult {
	tb := newTestbed(o)
	fab := core.NewFabric(tb.cl, kind, tb.prof)
	l := fab.Endpoint("b").Listen(1)
	res := pingResult{msgs: int64(2 * iters)}
	var got int64
	tb.k.Go("srv", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			if n, err := c.RecvFull(p, buf); err != nil || n != size {
				break
			}
			got++
			if c.SendSize(p, size) != nil {
				break
			}
		}
		_ = c.Close(p) // the result is already counted; a failed close cannot change it
	})
	tb.k.Go("cli", func(p *sim.Proc) {
		c, err := fab.Endpoint("a").Dial(p, "b", 1)
		if err != nil {
			return
		}
		p.Sleep(sim.Millisecond)
		buf := make([]byte, size)
		start := p.Now()
		done := 0
		for ; done < iters; done++ {
			if c.SendSize(p, size) != nil {
				break
			}
			if n, err := c.RecvFull(p, buf); err != nil || n != size {
				break
			}
			got++
		}
		if done == iters {
			res.oneWay = (p.Now() - start) / sim.Time(2*iters)
		}
		_ = c.Close(p) // as above
	})
	tb.k.RunAll()
	res.bad = res.msgs - got
	return res
}

// A stream sends n messages of size bytes one way through one stack
// and reports the payload bytes the far end received. The ladder runs
// the same stream through successively taller stacks.
type stream func(o *observers, size, n int) (received int64)

// streamTimers is the bare kernel: n chained timer events, no process.
func streamTimers(o *observers, size, n int) int64 {
	k := sim.NewKernel()
	o.attach(k)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < n {
			k.After(sim.Microsecond, tick)
		}
	}
	k.After(sim.Microsecond, tick)
	k.RunAll()
	return int64(fired) * int64(size)
}

// streamDoorbell is the kernel's process machinery: a producer posting
// into a queue with a parked consumer, one park/dispatch round trip on
// each side per item, the shape of every CQ post and softnet hand-off.
func streamDoorbell(o *observers, size, n int) int64 {
	k := sim.NewKernel()
	o.attach(k)
	q := sim.NewQueue[int](k, 0)
	var received int64
	k.Go("consumer", func(p *sim.Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			received += int64(v)
		}
	})
	k.Go("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Put(p, size)
			p.Sleep(sim.Microsecond) // re-park the consumer so every put rings the doorbell
		}
		q.Close()
	})
	k.RunAll()
	return received
}

// streamNetsim adds the switch: each message is one frame transmitted
// on the source uplink and handed by the destination port's handler to
// a parked consumer.
func streamNetsim(o *observers, size, n int) int64 {
	k := sim.NewKernel()
	o.attach(k)
	net := netsim.New(k, netsim.CLANConfig())
	net.Attach("a")
	q := sim.NewQueue[int](k, 0)
	net.Attach("b").Handle(netsim.ProtoVIA, func(f *netsim.Frame) { _ = q.TryPut(f.Size) })
	var received int64
	k.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			received += int64(v)
		}
	})
	k.Go("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Transmit(p, net.NewFrame("a", "b", netsim.ProtoVIA, size, nil))
		}
	})
	k.RunAll()
	return received
}

// sizedConn is what ktcp.Conn and core.Conn share: the ladder streams
// size-only payload through either.
type sizedConn interface {
	SendSize(p *sim.Proc, n int) error
	RecvFull(p *sim.Proc, buf []byte) (int, error)
}

// sendAll sends n messages of size bytes, stopping at the first error:
// a failed send shows as bytes missing at the receiver.
func sendAll(p *sim.Proc, c sizedConn, size, n int) {
	for i := 0; i < n; i++ {
		if c.SendSize(p, size) != nil {
			return
		}
	}
}

// recvAll receives n messages of size bytes and reports the bytes that
// arrived before the first error.
func recvAll(p *sim.Proc, c sizedConn, size, n int) (received int64) {
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		m, err := c.RecvFull(p, buf)
		received += int64(m)
		if err != nil {
			break
		}
	}
	return received
}

// streamKTCP sends through a kernel TCP connection.
func streamKTCP(o *observers, size, n int) int64 {
	tb := newTestbed(o)
	sa := ktcp.NewStack(tb.a, tb.net, tb.prof.TCP)
	sb := ktcp.NewStack(tb.b, tb.net, tb.prof.TCP)
	l := sb.Listen(1)
	var received int64
	tb.k.Go("srv", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		received = recvAll(p, c, size, n)
		_ = c.Close(p) // received is already final
	})
	tb.k.Go("cli", func(p *sim.Proc) {
		c, err := sa.Connect(p, "b", 1)
		if err != nil {
			return
		}
		sendAll(p, c, size, n)
		_ = c.Close(p) // a failed send already shows as missing bytes
	})
	tb.k.RunAll()
	return received
}

// viaWindow bounds the send descriptors a VIA stream keeps in flight.
const viaWindow = 16

// streamVIA sends through a raw VI with every receive pre-posted.
func streamVIA(o *observers, size, n int) int64 {
	tb := newTestbed(o)
	pa := via.NewProvider(tb.a, tb.net, tb.prof.VIA)
	pb := via.NewProvider(tb.b, tb.net, tb.prof.VIA)
	acc := pb.Listen(1)
	var received int64
	tb.k.Go("srv", func(p *sim.Proc) {
		scq, rcq := pb.NewCQ(), pb.NewCQ()
		vi, err := acc.Accept(p, scq, rcq)
		if err != nil {
			return
		}
		reg := pb.RegisterMem(p, 64*1024)
		for i := 0; i < n; i++ {
			if vi.PostRecv(p, &via.Desc{Region: reg, Len: 64 * 1024}) != nil {
				return
			}
		}
		for i := 0; i < n; i++ {
			if c := rcq.Wait(p); c.Status == via.StatusOK {
				received += int64(c.Desc.XferLen)
			}
		}
	})
	tb.k.Go("cli", func(p *sim.Proc) {
		scq, rcq := pa.NewCQ(), pa.NewCQ()
		vi := pa.NewVI(scq, rcq)
		if pa.Connect(p, vi, "b", 1) != nil {
			return
		}
		reg := pa.RegisterMem(p, 64*1024)
		p.Sleep(sim.Millisecond) // let the far side post its receives
		inflight := 0
		for i := 0; i < n; i++ {
			for inflight >= viaWindow {
				scq.Wait(p)
				inflight--
			}
			if vi.PostSend(p, &via.Desc{Region: reg, Len: size}) != nil {
				return
			}
			inflight++
		}
	})
	tb.k.RunAll()
	return received
}

// streamConn sends through core.Conn over either transport.
func streamConn(kind core.Kind) stream {
	return func(o *observers, size, n int) int64 {
		tb := newTestbed(o)
		fab := core.NewFabric(tb.cl, kind, tb.prof)
		l := fab.Endpoint("b").Listen(1)
		var received int64
		tb.k.Go("srv", func(p *sim.Proc) {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			received = recvAll(p, c, size, n)
			_ = c.Close(p) // received is already final
		})
		tb.k.Go("cli", func(p *sim.Proc) {
			c, err := fab.Endpoint("a").Dial(p, "b", 1)
			if err != nil {
				return
			}
			sendAll(p, c, size, n)
			_ = c.Close(p) // a failed send already shows as missing bytes
		})
		tb.k.RunAll()
		return received
	}
}

// ladderSource writes n buffers of size bytes; ladderSink drains its
// input and counts what arrived.
type ladderSource struct{ size, n int }

func (ladderSource) Init(*datacutter.Context) error { return nil }
func (f ladderSource) Process(ctx *datacutter.Context) error {
	out := ctx.Output("s")
	for i := 0; i < f.n; i++ {
		if err := out.Write(ctx.Proc(), &datacutter.Buffer{Size: f.size}); err != nil {
			return err
		}
	}
	return out.EndOfWork(ctx.Proc())
}
func (ladderSource) Finalize(*datacutter.Context) error { return nil }

type ladderSink struct{ received *int64 }

func (ladderSink) Init(*datacutter.Context) error { return nil }
func (f ladderSink) Process(ctx *datacutter.Context) error {
	in := ctx.Input("s")
	for {
		b, ok := in.Read(ctx.Proc())
		if !ok {
			return nil
		}
		*f.received += int64(b.Size)
	}
}
func (ladderSink) Finalize(*datacutter.Context) error { return nil }

// streamDataCutter sends through a two-filter DataCutter group, one
// copy each, one unit of work.
func streamDataCutter(kind core.Kind) stream {
	return func(o *observers, size, n int) int64 {
		tb := newTestbed(o)
		fab := core.NewFabric(tb.cl, kind, tb.prof)
		var received int64
		g := datacutter.NewRuntime(tb.cl, fab).Instantiate(datacutter.GroupSpec{
			Filters: []datacutter.FilterSpec{
				{Name: "src", Placement: []string{"a"},
					New: func(int) datacutter.Filter { return ladderSource{size: size, n: n} }},
				{Name: "dst", Placement: []string{"b"},
					New: func(int) datacutter.Filter { return ladderSink{received: &received} }},
			},
			Streams: []datacutter.StreamSpec{{Name: "s", From: "src", To: "dst"}},
		})
		g.Start(1)
		tb.k.RunAll()
		if g.Err() != nil || !g.Done().Fired() {
			return 0
		}
		return received
	}
}

// streamVizapp sends through the four-stage visualization pipeline with
// one chain: every message crosses three streams. The pipeline reports
// no delivered byte count of its own, so an observed run counts the
// bytes the visualization filter read and an unobserved run answers
// for the whole image once the query completed without error.
func streamVizapp(kind core.Kind) stream {
	return func(o *observers, size, n int) int64 {
		cfg := vizapp.DefaultPipelineConfig(kind, size)
		cfg.Chains = 1
		cfg.ImageBytes = size * n
		cfg.Hook = o.attach
		res := vizapp.RunPipeline(cfg, []vizapp.Query{cfg.CompleteQuery()})
		if res.Err != nil || res.Done[0] <= res.Start[0] {
			return 0
		}
		if o != nil {
			return o.counter("datacutter", "bytes.in") / 3
		}
		return int64(cfg.ImageBytes)
	}
}
