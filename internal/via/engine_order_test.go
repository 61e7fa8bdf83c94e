package via

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"strconv"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// The engine-order oracle. The NIC engines were simulation processes
// (descriptor fetch with DMA, and receive) up to commit ef3c161 and are
// event-context continuation chains since; the conversion promises that
// nothing outside the provider can tell. engineOrderRun drives seeded
// two-node traffic through the public API into every branch the engines
// have and hashes one line per counter update and instant of the
// monitor stream, completion and API error, each with its virtual time,
// then the Chrome trace export (span thread names and ids), EventsFired
// and the RDMA region. engineOrderOracle pins the event counts the
// process engines produced at ef3c161. Its digests were captured over
// the monitor stream from code whose digests of the older trace-hook
// log still matched those engines, so they stand for the same
// behaviour. Every draw comes from one generator consumed in activation
// order, so one reordering shifts all later draws and cannot cancel
// out.
var engineOrderOracle = []struct {
	seed   int64
	digest uint64
	fired  uint64
}{
	{1, 0xf950d5b03fae4375, 2085},
	{2, 0x869522fcb05329ce, 1676},
	{3, 0xd1a8731437837f17, 1527},
	{5, 0xff8b16ebf52ee507, 2217},
	{8, 0xe907ec8f2e27f3e9, 1780},
	{13, 0x457a5687bf9ee20b, 2043},
	{21, 0x0c10bebf8e2bcc5a, 1774},
	{34, 0x61603ee64d944164, 1505},
}

// engineOrderFaults loses one data frame and corrupts another, and
// corrupts one control frame, each chosen by seed among the frames
// after connection setup.
type engineOrderFaults struct {
	data, ctl             int
	drop, corrupt, ctlHit int
}

func (f *engineOrderFaults) Judge(_ sim.Time, fr *netsim.Frame) netsim.Disposition {
	switch fr.Payload.(*packet).kind {
	case pkConnReq, pkConnAck:
	case pkData, pkRDMA:
		f.data++
		switch f.data {
		case f.drop:
			return netsim.Drop
		case f.corrupt:
			return netsim.Corrupt
		}
	default:
		if f.ctl++; f.ctl == f.ctlHit {
			return netsim.Corrupt
		}
	}
	return netsim.Deliver
}

type engineOrderResult struct {
	digest uint64
	fired  uint64
	seen   map[string]int // monitor events and completion statuses, for coverage
}

// monLog is the oracle's collector with every counter update and
// instant also reported to fn, in simulation order; a counter's delta
// is its detail.
type monLog struct {
	*hpsmon.Collector
	fn func(p *sim.Proc, component, name, detail string)
}

func (m monLog) Count(at sim.Time, component, name string, delta int64) {
	m.fn(nil, component, name, strconv.FormatInt(delta, 10))
	m.Collector.Count(at, component, name, delta)
}

func (m monLog) Instant(at sim.Time, p *sim.Proc, component, name, detail string) {
	m.fn(p, component, name, detail)
	m.Collector.Instant(at, p, component, name, detail)
}

func engineOrderRun(t *testing.T, seed int64) engineOrderResult {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	cl := cluster.New(k, net)
	cfg := CLANConfig()
	na, nb := cl.AddNode("a", cluster.DefaultConfig()), cl.AddNode("b", cluster.DefaultConfig())
	pa, pb := NewProvider(na, net, cfg), NewProvider(nb, net, cfg)

	rng := rand.New(rand.NewSource(seed))
	res := engineOrderResult{seen: map[string]int{}}
	var h hash.Hash64 = fnv.New64a()
	logf := func(format string, args ...any) {
		fmt.Fprintf(h, "%d ", int64(k.Now()))
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	}
	col := hpsmon.NewCollector("engine-order", hpsmon.Options{Spans: true})
	k.SetMonitor(monLog{col, func(_ *sim.Proc, component, name, detail string) {
		res.seen[name]++
		logf("%s %s %s", component, name, detail)
	}})
	net.SetFaultModel(&engineOrderFaults{drop: 30 + rng.Intn(150), corrupt: 30 + rng.Intn(150), ctlHit: 1 + rng.Intn(3)})
	pressureAt, matched := 6+rng.Intn(12), 0
	pb.SetDescPressure(func() bool { matched++; return matched == pressureAt })

	// One completion queue pair per node, shared by every VI on it; a
	// logger process drains each.
	cqs := map[string]*CQ{"a.send": pa.NewCQ(), "a.recv": pa.NewCQ(), "b.send": pb.NewCQ(), "b.recv": pb.NewCQ()}
	for _, name := range []string{"a.send", "a.recv", "b.send", "b.recv"} {
		name, cq := name, cqs[name]
		k.Go("cq-"+name, func(p *sim.Proc) {
			for {
				c := cq.Wait(p)
				res.seen[c.Status.String()]++
				if !c.IsRecv && c.Status == StatusBroken {
					res.seen["send-broken"]++ // fetched from the work queue after the VI broke
				}
				if c.Desc == nil {
					logf("%s vi%d recv=%v %v no-desc", name, c.VI.ID(), c.IsRecv, c.Status)
					continue
				}
				sum := 0
				for _, b := range c.Desc.Data {
					sum += int(b)
				}
				logf("%s vi%d recv=%v %v len %d xfer %d imm %d sum %d", name, c.VI.ID(), c.IsRecv,
					c.Status, c.Desc.Len, c.Desc.XferLen, c.Desc.Imm, sum)
			}
		})
	}

	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	post := func(p *sim.Proc, who string, vi *VI, d *Desc) {
		if err := vi.PostSend(p, d); err != nil {
			res.seen["post-error"]++
			logf("%s post send %d: %v", who, d.Len, err)
		}
	}
	// connect runs one connection: the server side on b, the client on a.
	connect := func(svc int, client, server func(p *sim.Proc, vi *VI)) {
		acc := pb.Listen(svc)
		k.Go(fmt.Sprintf("server/%d", svc), func(p *sim.Proc) {
			vi, err := acc.Accept(p, cqs["b.send"], cqs["b.recv"])
			if err != nil {
				t.Errorf("accept %d: %v", svc, err)
				return
			}
			server(p, vi)
		})
		k.Go(fmt.Sprintf("client/%d", svc), func(p *sim.Proc) {
			vi := pa.NewVI(cqs["a.send"], cqs["a.recv"])
			if err := pa.Connect(p, vi, "b", svc); err != nil {
				t.Errorf("connect %d: %v", svc, err)
				return
			}
			client(p, vi)
		})
	}

	// 1: multi-fragment sends both ways at once, so on each node the
	// transmit and receive engines contend for the one DMA engine.
	bidir := func(who string) func(p *sim.Proc, vi *VI) {
		return func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 24<<10)
			for i := 0; i < 14; i++ {
				if err := vi.PostRecv(p, &Desc{Region: reg, Len: 24 << 10}); err != nil {
					logf("%s post recv: %v", who, err)
				}
			}
			for i := 0; i < 14; i++ {
				n := 1 + rng.Intn(20<<10)
				post(p, who, vi, &Desc{Region: reg, Len: n, Data: payload(n), Imm: uint64(i)})
				p.Sleep(sim.Time(rng.Intn(60_000)))
			}
		}
	}
	connect(1, bidir("bidir-a"), bidir("bidir-b"))

	// 2: RDMA writes, a notifying send, then a write past the region's
	// end: a protection violation that breaks the connection.
	var region *MemRegion
	var handle uint32
	exported := sim.NewSignal(k)
	connect(2,
		func(p *sim.Proc, vi *VI) {
			reg := pa.RegisterMem(p, 16<<10)
			p.Wait(exported)
			for i := 0; i < 3; i++ {
				n := 1 + rng.Intn(5000)
				if err := vi.PostRDMAWrite(p, &Desc{Region: reg, Len: n, Data: payload(n)}, handle, i*5000); err != nil {
					logf("rdma write: %v", err)
				}
				p.Sleep(sim.Time(rng.Intn(30_000)))
			}
			post(p, "rdma", vi, &Desc{Region: reg, Len: 8, Data: payload(8), Imm: 77})
			p.Sleep(sim.Time(rng.Intn(100_000)))
			err := vi.PostRDMAWrite(p, &Desc{Region: reg, Len: 6000, Data: payload(6000)}, handle, 12<<10)
			logf("rdma violation posted: %v", err)
			p.Sleep(4_000_000)
			err = vi.PostRDMAWrite(p, &Desc{Region: reg, Len: 8, Data: payload(8)}, handle, 0)
			if errors.Is(err, ErrBroken) {
				res.seen["violation-break"]++
			}
			logf("rdma after violation: %v", err)
		},
		func(p *sim.Proc, vi *VI) {
			region, handle = pb.RegisterMemRDMA(p, 16<<10)
			if err := vi.PostRecv(p, &Desc{Region: region, Len: 64}); err != nil {
				logf("rdma post recv: %v", err)
			}
			exported.Fire(nil)
		})

	// 3: back-to-back sends to a VI with no receive descriptor: the
	// first breaks the connection (RNR), the ones already on the work
	// queue meet a broken VI on one side or the other, and a post after
	// the break fails at the API.
	connect(3,
		func(p *sim.Proc, vi *VI) {
			reg := pa.RegisterMem(p, 8<<10)
			p.Sleep(sim.Time(20_000 + rng.Intn(200_000)))
			for i := 0; i < 4; i++ {
				n := 1 + rng.Intn(6000)
				post(p, "rnr", vi, &Desc{Region: reg, Len: n, Data: payload(n)})
			}
			p.Sleep(4_000_000)
			post(p, "rnr-late", vi, &Desc{Region: reg, Len: 16})
		},
		func(p *sim.Proc, vi *VI) {})

	// 4: disconnect with the fragments of a large send still in flight.
	connect(4,
		func(p *sim.Proc, vi *VI) {
			reg := pa.RegisterMem(p, 24<<10)
			p.Sleep(sim.Time(rng.Intn(300_000)))
			post(p, "disc", vi, &Desc{Region: reg, Len: 20 << 10, Data: payload(20 << 10)})
			post(p, "disc", vi, &Desc{Region: reg, Len: 3000})
			p.Sleep(sim.Time(rng.Intn(15_000)))
			pa.Disconnect(p, vi)
			logf("disconnected")
		},
		func(p *sim.Proc, vi *VI) {
			reg := pb.RegisterMem(p, 24<<10)
			for i := 0; i < 2; i++ {
				if err := vi.PostRecv(p, &Desc{Region: reg, Len: 24 << 10}); err != nil {
					logf("disc post recv: %v", err)
				}
			}
		})

	// 5: a stream of small size-only sends from b to a while everything
	// else runs, the receiver re-posting as it goes: descriptor pressure
	// on b's other VIs and the injected faults land among these.
	connect(5,
		func(p *sim.Proc, vi *VI) {
			reg := pa.RegisterMem(p, 4096)
			for i := 0; i < 40; i++ {
				if err := vi.PostRecv(p, &Desc{Region: reg, Len: 4096}); err != nil {
					logf("stream post recv: %v", err)
					return
				}
				p.Sleep(sim.Time(5_000 + rng.Intn(10_000)))
			}
		},
		func(p *sim.Proc, vi *VI) {
			reg := pb.RegisterMem(p, 4096)
			p.Sleep(30_000)
			for i := 0; i < 36; i++ {
				post(p, "stream", vi, &Desc{Region: reg, Len: 1 + rng.Intn(4096), Imm: uint64(i)})
				p.Sleep(sim.Time(8_000 + rng.Intn(12_000)))
			}
		})

	k.RunAll()
	if err := col.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "fired %d descs %d/%d %d/%d rdma %x\n", k.EventsFired(),
		pa.DescsSent(), pa.DescsRecv(), pb.DescsSent(), pb.DescsRecv(), region.RDMABytes())
	res.digest, res.fired = h.Sum64(), k.EventsFired()
	return res
}

func TestEngineOrderOracle(t *testing.T) {
	seen := map[string]int{}
	for _, want := range engineOrderOracle {
		got := engineOrderRun(t, want.seed)
		if got.digest != want.digest || got.fired != want.fired {
			t.Errorf("seed %d: digest %#x, %d events; the oracle holds %#x, %d",
				want.seed, got.digest, got.fired, want.digest, want.fired)
		}
		for name, n := range got.seen {
			seen[name] += n
		}
	}
	// The traffic must reach the branches the oracle exists for.
	for _, name := range []string{"descs.sent", "descs.recv", "rdma.writes", "loss-break", "rnr-break",
		"desc.pressure", "ctrl.corrupt.drops", "frames.dropped", "ok", "rnr", "broken", "send-broken", "violation-break", "post-error"} {
		if seen[name] == 0 {
			t.Errorf("coverage: no %q in any seed (saw %v)", name, seen)
		}
	}
}

// A backlog of packets that need no hold (stale fragments after a VI
// broke, corrupted control frames) and of descriptors posted on a VI
// that broke since is drained in a loop, not by one nested call per
// item: 10,000 of each fit the stack a test normally needs, complete
// exactly as the process engines completed them, and cost the same
// events.
func TestEnginesDrainBacklogWithoutRecursion(t *testing.T) {
	const backlog = 10_000
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 10))
	r := newRig(t, CLANConfig())
	drops := 0
	r.k.SetMonitor(monLog{hpsmon.NewCollector("backlog", hpsmon.Options{}), func(_ *sim.Proc, _, name, _ string) {
		if name == "ctrl.corrupt.drops" {
			drops++
		}
	}})
	var cvi *VI
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			cvi = vi
			reg := r.pa.RegisterMem(p, 4096)
			// No receive descriptor on the other side: this send breaks
			// the connection at both ends.
			if err := vi.PostSend(p, &Desc{Region: reg, Len: 64}); err != nil {
				t.Errorf("post send: %v", err)
			}
			p.Sleep(sim.Millisecond)
			if !vi.Broken() {
				t.Errorf("client VI did not break")
			}
			r.k.After(0, func() {
				for i := 0; i < backlog; i++ {
					pk := r.pb.newPacket()
					pk.kind, pk.srcPort, pk.dstVI, pk.fragLen, pk.last = pkData, "a", vi.peerVI, 64, true
					if i%100 == 99 {
						pk.kind, pk.corrupt = pkDisconnect, true
					}
					_ = r.pb.rxQ.TryPut(pk)
					w := r.pa.newSendWork()
					w.vi, w.desc = vi, &Desc{Region: reg, Len: 64}
					_ = r.pa.sendWQ.TryPut(w)
				}
			})
		},
		func(p *sim.Proc, vi *VI) {})
	broken := 0
	for {
		c, ok := cvi.sendCQ.Poll()
		if !ok {
			break
		}
		if c.Status == StatusBroken && c.Desc.Status == StatusBroken {
			broken++
		}
	}
	if broken != backlog || drops != backlog/100 {
		t.Errorf("%d broken send completions, %d dropped control frames, want %d and %d", broken, drops, backlog, backlog/100)
	}
	if got := len(r.pb.pkPool); got < backlog {
		t.Errorf("receive engine recycled %d packets, want at least %d", got, backlog)
	}
	// The process engines of commit ef3c161 fired this many events.
	if got, want := r.k.EventsFired(), uint64(41); got != want {
		t.Errorf("EventsFired = %d, want %d", got, want)
	}
}

// providerSetupAllocs is what NewProvider on two nodes plus one
// connection and one message each way allocated with the engines as
// processes (commit ef3c161). chaos-sweep builds a cluster per scenario,
// so set-up allocations are a benchmark metric with a 1 % bound.
const providerSetupAllocs = 170

func TestProviderSetupAllocations(t *testing.T) {
	var nodes [2]*cluster.Node
	var net *netsim.Network
	var k *sim.Kernel
	run := func(providers bool) float64 {
		return testing.AllocsPerRun(50, func() {
			k = sim.NewKernel()
			net = netsim.New(k, netsim.CLANConfig())
			cl := cluster.New(k, net)
			nodes[0], nodes[1] = cl.AddNode("a", cluster.DefaultConfig()), cl.AddNode("b", cluster.DefaultConfig())
			if !providers {
				return
			}
			pa, pb := NewProvider(nodes[0], net, CLANConfig()), NewProvider(nodes[1], net, CLANConfig())
			acc := pb.Listen(1)
			exchange := func(p *sim.Proc, vi *VI) {
				reg := vi.Provider().RegisterMem(p, 8192)
				if err := vi.PostRecv(p, &Desc{Region: reg, Len: 8192}); err != nil {
					t.Error(err)
				}
				p.Sleep(50 * sim.Microsecond)
				if err := vi.PostSend(p, &Desc{Region: reg, Len: 5000}); err != nil {
					t.Error(err)
				}
				if c := vi.sendCQ.Wait(p); c.Status != StatusOK {
					t.Errorf("send %v", c.Status)
				}
				if c := vi.recvCQ.Wait(p); c.Status != StatusOK {
					t.Errorf("recv %v", c.Status)
				}
			}
			k.Go("server", func(p *sim.Proc) {
				vi, err := acc.Accept(p, pb.NewCQ(), pb.NewCQ())
				if err != nil {
					t.Error(err)
					return
				}
				exchange(p, vi)
			})
			k.Go("client", func(p *sim.Proc) {
				vi := pa.NewVI(pa.NewCQ(), pa.NewCQ())
				if err := pa.Connect(p, vi, "b", 1); err != nil {
					t.Error(err)
					return
				}
				exchange(p, vi)
			})
			k.RunAll()
		})
	}
	got := run(true) - run(false)
	t.Logf("two providers, one connection, one message each way: %v allocations", got)
	if got > providerSetupAllocs {
		t.Errorf("%v allocations, the process engines needed %d", got, providerSetupAllocs)
	}
}
