package ktcp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime/debug"
	"strconv"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// The engine-order oracle. A stack's receive path (softnet) and each
// connection's transmit engine were simulation processes up to commit
// 8895a36 and are event-context continuation engines since; the
// conversion promises that nothing outside the stack can tell.
// engineOrderRun drives seeded two-node traffic through the public API
// into every branch the engines have and hashes one line per counter
// update and instant of the monitor stream, per segment on the wire
// and per API return value, each with its virtual time, then the
// Chrome trace export (span thread names and ids) and EventsFired.
// engineOrderOracle pins the event counts the process loops produced
// at 8895a36. Its digests were captured over the monitor stream from
// code whose digests of the older trace-hook log still matched those
// loops, so they stand for the same behaviour. Every draw comes from one
// generator consumed in activation order, so one reordering shifts all
// later draws and cannot cancel out.
var engineOrderOracle = []struct {
	seed   int64
	nagle  bool
	rto    bool // retransmission on, and with it the injected loss
	digest uint64
	fired  uint64
}{
	{1, false, false, 0xc0903a2fe00d3817, 32505},
	{2, true, false, 0xd41d0388c1c2b0e3, 28358},
	{3, false, true, 0xe81170dad3b76696, 51028},
	{5, true, true, 0x56ca676e5c888812, 50356},
	{8, false, true, 0xfe1e87c879478ddf, 51737},
	{13, true, true, 0xee164ded8165d10d, 47170},
	{21, false, true, 0xcbd1e6e2ee057370, 54317},
	{34, true, true, 0x5899fd2bd1c9cedc, 37136},
}

type connKey struct {
	port string
	conn uint32
}

// engineOrderFaults is the oracle's wire tap: it logs every segment the
// fabric carries, counts FINs sent twice, and (with retransmission on)
// loses or corrupts one frame of each kind, chosen by seed, and
// swallows every data frame of the connections in blackhole.
type engineOrderFaults struct {
	data, acks, fins, syns, synacks int

	dropData, corruptData, dropAck, dropFIN, dropSYNACK int
	dropSYNSvc                                          int
	blackhole                                           map[connKey]bool

	logf    func(format string, args ...any)
	finSent map[connKey]bool
	finRe   int
}

func (f *engineOrderFaults) Judge(_ sim.Time, fr *netsim.Frame) netsim.Disposition {
	seg := fr.Payload.(*segment)
	f.logf("wire %d %s/%d>%d svc %d seq %d len %d ack %d rwnd %d", seg.kind, seg.srcPort, seg.srcConn,
		seg.dstConn, seg.svc, seg.seq, seg.length, seg.cumAck, seg.rwnd)
	drop := false
	switch seg.kind {
	case segSYN:
		f.syns++
		if seg.svc == f.dropSYNSvc {
			f.dropSYNSvc = -1 // the first attempt only
			drop = true
		}
	case segSYNACK:
		f.synacks++
		drop = f.synacks == f.dropSYNACK
	case segData:
		if f.blackhole[connKey{seg.srcPort, seg.srcConn}] {
			return netsim.Drop
		}
		f.data++
		if f.data == f.corruptData {
			return netsim.Corrupt
		}
		drop = f.data == f.dropData
	case segAck:
		f.acks++
		drop = f.acks == f.dropAck
	case segFIN:
		f.fins++
		drop = f.fins == f.dropFIN
		if k := (connKey{seg.srcPort, seg.srcConn}); f.finSent[k] {
			f.finRe++
		} else {
			f.finSent[k] = true
		}
	}
	if drop {
		return netsim.Drop
	}
	return netsim.Deliver
}

type engineOrderResult struct {
	digest uint64
	fired  uint64
	seen   map[string]int // monitor events, span names and API outcomes, for coverage
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

func engineOrderRun(t *testing.T, seed int64, nagle, rto bool) engineOrderResult {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	cl := cluster.New(k, net)
	cfg := LinuxCLANConfig()
	cfg.nagle = nagle
	if rto {
		cfg.RTO = 2 * sim.Millisecond
		cfg.MaxRetries = 5
	}
	na, nb := cl.AddNode("a", cluster.DefaultConfig()), cl.AddNode("b", cluster.DefaultConfig())
	sa, sb := NewStack(na, net, cfg), NewStack(nb, net, cfg)

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
		if name == "segments.out" && (sa.nicQ.Len() == nicQDepth || sb.nicQ.Len() == nicQDepth) {
			res.seen["nic-full"]++ // the Put that follows this count finds no room
		}
		logf("%s %s %s", component, name, detail)
	}})
	faults := &engineOrderFaults{blackhole: map[connKey]bool{}, logf: logf, finSent: map[connKey]bool{}}
	if rto {
		faults.dropData, faults.corruptData = 40+rng.Intn(400), 40+rng.Intn(400)
		faults.dropAck, faults.dropFIN = 20+rng.Intn(200), 1+rng.Intn(6)
		faults.dropSYNACK, faults.dropSYNSvc = 1+rng.Intn(8), 7
	}
	net.SetFaultModel(faults)

	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	// drain reads the stream to its end in reads of at most chunk
	// bytes, pausing between them, and logs what it saw.
	drain := func(p *sim.Proc, who string, c *Conn, chunk int, pause sim.Time) {
		buf := make([]byte, chunk)
		total, sum := 0, 0
		for {
			n, err := c.Recv(p, buf)
			total += n
			for _, b := range buf[:n] {
				sum += int(b)
			}
			if err != nil {
				if err != io.EOF {
					res.seen["recv-error"]++
				}
				logf("%s recv end: %d bytes sum %d: %v", who, total, sum, err)
				return
			}
			if pause > 0 {
				p.Sleep(pause)
			}
		}
	}
	shut := func(p *sim.Proc, who string, c *Conn) {
		err := c.Close(p)
		logf("%s closed: %v", who, err)
	}
	// connect runs one connection of a service: the server side on b,
	// the client on a.
	connect := func(svc int, acceptDelay sim.Time, client, server func(p *sim.Proc, c *Conn)) {
		l := sb.Listen(svc)
		k.Go(fmt.Sprintf("server/%d", svc), func(p *sim.Proc) {
			p.Sleep(acceptDelay)
			c, err := l.Accept(p)
			logf("accept %d: %v", svc, err)
			if err == nil {
				res.seen["accepted"]++
				server(p, c)
			}
		})
		k.Go(fmt.Sprintf("client/%d", svc), func(p *sim.Proc) {
			c, err := sa.Connect(p, "b", svc)
			logf("connect %d: %v", svc, err)
			if err == nil {
				client(p, c)
			}
		})
	}

	// 1: bulk both ways at once in writes from a few bytes (which Nagle
	// coalesces) to several windows' worth, each end reading on a
	// second process.
	bidir := func(who string) func(p *sim.Proc, c *Conn) {
		return func(p *sim.Proc, c *Conn) {
			k.Go(who+"-rx", func(p *sim.Proc) { drain(p, who, c, 16<<10, 0) })
			for i := 0; i < 30; i++ {
				n := 1 + rng.Intn(200)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Intn(150_000)
				}
				if err := c.Send(p, payload(n)); err != nil {
					logf("%s send %d: %v", who, n, err)
				}
				p.Sleep(sim.Time(rng.Intn(400_000)))
			}
			shut(p, who, c)
		}
	}
	connect(1, 0, bidir("bidir-a"), bidir("bidir-b"))

	// 2: a reader slow enough to close the window; only its window
	// updates reopen it.
	connect(2, 0,
		func(p *sim.Proc, c *Conn) {
			logf("slow send: %v", c.SendSize(p, 300<<10))
			shut(p, "slow-a", c)
		},
		func(p *sim.Proc, c *Conn) { drain(p, "slow-b", c, 8<<10, sim.Time(1_000_000+rng.Intn(2_000_000))) })

	// 3: lone sub-MSS segments with the stream quiet after each: only
	// the delayed-ack timer acknowledges them.
	connect(3, 0,
		func(p *sim.Proc, c *Conn) {
			for i := 0; i < 5; i++ {
				logf("lone send: %v", c.Send(p, payload(1+rng.Intn(1000))))
				p.Sleep(ackTimeout*2 + sim.Time(rng.Intn(300_000)))
			}
			shut(p, "lone-a", c)
		},
		func(p *sim.Proc, c *Conn) { drain(p, "lone-b", c, 4096, 0) })

	// 4: 40 connections that all write at one instant, so their
	// segments overflow the 32-deep NIC queue and the transmit engines
	// wait their turn on it.
	l4 := sb.Listen(4)
	k.Go("server/4", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			c, err := l4.Accept(p)
			logf("accept 4.%d: %v", i, err)
			if err != nil {
				return
			}
			res.seen["accepted"]++
			who := fmt.Sprintf("burst-b%d", i)
			k.Go(who, func(p *sim.Proc) {
				drain(p, who, c, 4096, 0)
				shut(p, who, c)
			})
		}
	})
	burstAt := sim.Time(3_000_000 + rng.Intn(3_000_000))
	for i := 0; i < 40; i++ {
		who := fmt.Sprintf("burst-a%d", i)
		k.Go(who, func(p *sim.Proc) {
			c, err := sa.Connect(p, "b", 4)
			logf("%s connect: %v", who, err)
			if err != nil {
				res.seen["connect-error"]++
				return
			}
			if now := k.Now(); now < burstAt {
				p.Sleep(burstAt - now)
			}
			n := 2000 + rng.Intn(6000)
			logf("%s send %d: %v", who, n, c.SendSize(p, n))
			shut(p, who, c)
		})
	}

	// 5: Close with most of the data still in the send buffer, and a
	// second closer that finds the first at work.
	connect(5, 0,
		func(p *sim.Proc, c *Conn) {
			p.Sleep(sim.Time(rng.Intn(2_000_000)))
			logf("tail send: %v", c.Send(p, payload(50_000+rng.Intn(14_000))))
			k.Go("tail-closer2", func(p *sim.Proc) { shut(p, "tail-a2", c) })
			shut(p, "tail-a", c)
			logf("send after close: %v", c.SendSize(p, 10))
		},
		func(p *sim.Proc, c *Conn) { drain(p, "tail-b", c, 32<<10, 0) })

	// 6 and 10: the peer stops hearing these connections' data and the
	// retransmission budget runs out, on one with a writer parked on the
	// full send buffer, on the other with a closer parked behind data
	// that can never drain.
	if rto {
		doomed := func(who string, rest func(p *sim.Proc, c *Conn)) func(p *sim.Proc, c *Conn) {
			return func(p *sim.Proc, c *Conn) {
				logf("%s first send: %v", who, c.SendSize(p, 20_000))
				p.Sleep(sim.Time(500_000 + rng.Intn(500_000)))
				faults.blackhole[connKey{"a", c.ID()}] = true
				rest(p, c)
			}
		}
		connect(6, 0,
			doomed("doomed-writer", func(p *sim.Proc, c *Conn) {
				err := c.SendSize(p, 400<<10)
				if err == ErrTimeout {
					res.seen["send-timeout"]++
				}
				logf("doomed send: %v", err)
			}),
			func(p *sim.Proc, c *Conn) { drain(p, "doomed-b", c, 32<<10, 0) })
		connect(10, 0,
			doomed("doomed-closer", func(p *sim.Proc, c *Conn) {
				logf("doomed buffered send: %v", c.SendSize(p, 60_000))
				t0 := k.Now()
				shut(p, "doomed-closer", c)
				if k.Now()-t0 > 10*sim.Millisecond {
					res.seen["close-released-by-fail"]++
				}
			}),
			func(p *sim.Proc, c *Conn) {
				// Not reading: the window stays short of the send buffer.
				p.Sleep(200 * sim.Millisecond)
				drain(p, "doomed-b2", c, 32<<10, 0)
			})
	}

	// 7: its first SYN is lost (with rto); 8: the listener accepts late,
	// so retransmitted SYNs find the first still queued. The SYNACK the
	// fault model loses, on whichever connection, is repeated by softnet
	// when the retransmitted SYN finds the connection accepted.
	for svc, delay := range []sim.Time{7: 0, 8: 7 * sim.Millisecond} {
		if svc < 7 {
			continue
		}
		who := fmt.Sprintf("hs%d", svc)
		connect(svc, delay,
			func(p *sim.Proc, c *Conn) {
				logf("%s send: %v", who, c.Send(p, payload(3000)))
				shut(p, who+"-a", c)
			},
			func(p *sim.Proc, c *Conn) {
				drain(p, who+"-b", c, 4096, 0)
				shut(p, who+"-b", c)
			})
	}

	// 9: a long stream with node b crashing and restarting under it:
	// softnet, the transmit engines and b's readers all halt at their
	// next CPU use and pick up where they stopped.
	connect(9, 0,
		func(p *sim.Proc, c *Conn) {
			for i := 0; i < 60; i++ {
				if err := c.Send(p, payload(8<<10)); err != nil {
					logf("crash send %d: %v", i, err)
					break
				}
				p.Sleep(sim.Time(rng.Intn(150_000)))
			}
			shut(p, "crash-a", c)
		},
		func(p *sim.Proc, c *Conn) {
			drain(p, "crash-b", c, 16<<10, 0)
			logf("crash reply: %v", c.SendSize(p, 5000))
			shut(p, "crash-b", c)
		})
	crashAt := sim.Time(2_000_000 + rng.Intn(4_000_000))
	k.After(crashAt, func() {
		logf("fail b")
		nb.Fail()
	})
	k.After(crashAt+sim.Time(1_000_000+rng.Intn(4_000_000)), func() {
		logf("restart b")
		nb.Restart()
	})

	k.RunAll()
	for _, s := range col.Spans() {
		res.seen[s.Name]++
	}
	if faults.synacks > res.seen["accepted"] { // one per connection, and the repeats
		res.seen["synack-repeat"]++
	}
	res.seen["fin-retransmit"] = faults.finRe
	if err := col.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "fired %d segs %d/%d %d/%d\n", k.EventsFired(),
		sa.SegmentsIn(), sa.SegmentsOut(), sb.SegmentsIn(), sb.SegmentsOut())
	res.digest, res.fired = h.Sum64(), k.EventsFired()
	return res
}

func TestEngineOrderOracle(t *testing.T) {
	seen := map[string]int{}
	for _, want := range engineOrderOracle {
		got := engineOrderRun(t, want.seed, want.nagle, want.rto)
		if got.digest != want.digest || got.fired != want.fired {
			t.Errorf("seed %d nagle %v rto %v: digest %#x, %d events; the oracle holds %#x, %d",
				want.seed, want.nagle, want.rto, got.digest, got.fired, want.digest, want.fired)
		}
		if doomed := map[bool]int{true: 2}[want.rto]; got.seen["recv-error"]+got.seen["connect-error"] > 0 || got.seen["conn-fail"] != doomed {
			t.Errorf("seed %d: %d broken streams, %d failed connects, %d failed connections; only the %d doomed ones may fail",
				want.seed, got.seen["recv-error"], got.seen["connect-error"], got.seen["conn-fail"], doomed)
		}
		for name, n := range got.seen {
			seen[name] += n
		}
	}
	// The traffic must reach the branches the oracle exists for.
	for _, name := range []string{"segments.in", "segments.out", "acks.out", "ooo.drops", "checksum.drops", "frames.dropped",
		"rto.segments", "fin-retransmit", "syn.retransmits", "synack-repeat", "conn-fail", "send-timeout", "close-released-by-fail", "node-halt",
		"nic-full", "tx-stall", "snd-stall", "rcv-wait"} {
		if seen[name] == 0 {
			t.Errorf("coverage: no %q in any seed (saw %v)", name, seen)
		}
	}
}

// A backlog of softnet work that needs no wait (segments for a
// connection that is gone, a duplicate SYNACK, a duplicate SYN still
// queued for accept, a flush with nothing pending) is drained in a
// loop, not by one nested call per item: 10,000 of them fit the stack
// a test normally needs and cost the events they cost the process loop.
func TestSoftnetDrainsBacklogWithoutRecursion(t *testing.T) {
	const backlog = 10_000
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 10))
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	node := cluster.New(k, net).AddNode("a", cluster.DefaultConfig())
	st := NewStack(node, net, LinuxCLANConfig())
	st.synSeen[synKey{"z", 7}] = true
	idle := &Conn{}
	k.After(10, func() {
		for i := 0; i < backlog; i++ {
			seg := st.allocSeg(true)
			seg.dstConn = 99
			switch i % 5 {
			case 0:
				seg.kind = segData
			case 1:
				seg.kind = segAck
			case 2:
				seg.kind = segSYNACK
			case 3:
				seg.kind, seg.srcPort, seg.srcConn = segSYN, "z", 7
			case 4:
				freeSeg(seg)
				_ = st.softQ.TryPut(softItem{flushConn: idle})
				continue
			}
			_ = st.softQ.TryPut(softItem{seg: seg})
		}
	})
	k.RunAll()
	if st.softQ.Len() != 0 || st.SegmentsIn() != backlog*4/5 {
		t.Fatalf("%d items still queued, %d segments taken in, want 0 and %d", st.softQ.Len(), st.SegmentsIn(), backlog*4/5)
	}
	// The process loop of commit 8895a36 fired this many events.
	if got, want := k.EventsFired(), uint64(6); got != want {
		t.Errorf("EventsFired = %d, want %d", got, want)
	}
}

// stackSetupAllocs is what NewStack on two nodes plus one connection
// and one message each way allocated with softnet and the transmit
// engines as processes (commit 8895a36). chaos-sweep builds a cluster
// per scenario, so set-up allocations are a benchmark metric with a
// 1 % bound.
const stackSetupAllocs = 244

func TestStackSetupAllocations(t *testing.T) {
	run := func(stacks bool) float64 {
		return testing.AllocsPerRun(50, func() {
			k := sim.NewKernel()
			net := netsim.New(k, netsim.CLANConfig())
			cl := cluster.New(k, net)
			na, nb := cl.AddNode("a", cluster.DefaultConfig()), cl.AddNode("b", cluster.DefaultConfig())
			if !stacks {
				return
			}
			sa, sb := NewStack(na, net, LinuxCLANConfig()), NewStack(nb, net, LinuxCLANConfig())
			l := sb.Listen(1)
			exchange := func(p *sim.Proc, c *Conn) {
				if err := c.SendSize(p, 5000); err != nil {
					t.Error(err)
				}
				var buf [5000]byte
				if n, err := c.RecvFull(p, buf[:]); n != len(buf) || err != nil {
					t.Errorf("recv %d: %v", n, err)
				}
			}
			k.Go("server", func(p *sim.Proc) {
				c, err := l.Accept(p)
				if err != nil {
					t.Error(err)
					return
				}
				exchange(p, c)
			})
			k.Go("client", func(p *sim.Proc) {
				c, err := sa.Connect(p, "b", 1)
				if err != nil {
					t.Error(err)
					return
				}
				exchange(p, c)
			})
			k.RunAll()
		})
	}
	got := run(true) - run(false)
	t.Logf("two stacks, one connection, one message each way: %v allocations", got)
	if got > stackSetupAllocs {
		t.Errorf("%v allocations, the process loops needed %d", got, stackSetupAllocs)
	}
}
