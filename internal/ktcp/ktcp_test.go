package ktcp

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// rig builds an n-node cluster with a TCP stack on each node.
type rig struct {
	k      *sim.Kernel
	cl     *cluster.Cluster
	stacks []*Stack
}

func newRig(n int, cfg Config) *rig {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	cl := cluster.New(k, net)
	r := &rig{k: k, cl: cl}
	for i := 0; i < n; i++ {
		node := cl.AddNode(string(rune('a'+i)), cluster.DefaultConfig())
		r.stacks = append(r.stacks, NewStack(node, net, cfg))
	}
	return r
}

// pair runs a client/server pair between stacks 0 and 1 on service 1.
func (r *rig) pair(t *testing.T, client, server func(p *sim.Proc, c *Conn)) {
	t.Helper()
	l := r.stacks[1].Listen(1)
	r.k.Go("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		server(p, c)
	})
	r.k.Go("client", func(p *sim.Proc) {
		c, err := r.stacks[0].Connect(p, "b", 1)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		client(p, c)
	})
	r.k.RunAll()
}

func TestConnectAccept(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	var cliOK, srvOK bool
	r.pair(t,
		func(p *sim.Proc, c *Conn) { cliOK = c.Established() },
		func(p *sim.Proc, c *Conn) { srvOK = c.Established() },
	)
	if !cliOK || !srvOK {
		t.Fatal("handshake incomplete")
	}
}

func TestStreamDeliversBytesInOrder(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	msg := make([]byte, 10_000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var got []byte
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			if err := c.Send(p, msg); err != nil {
				t.Errorf("send: %v", err)
			}
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, len(msg))
			n, err := c.RecvFull(p, buf)
			if n != len(msg) || err != nil {
				t.Errorf("recv %d, %v", n, err)
			}
			got = buf
		},
	)
	for i := range msg {
		if got[i] != msg[i] {
			t.Fatalf("stream corrupted at %d", i)
		}
	}
}

func TestRecvSeesEOFAfterClose(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	var err2 error
	var n1 int
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			c.Send(p, []byte("bye"))
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, 16)
			n1, _ = c.Recv(p, buf)
			_, err2 = c.Recv(p, buf)
		},
	)
	if n1 != 3 {
		t.Fatalf("first recv = %d, want 3", n1)
	}
	if err2 != io.EOF {
		t.Fatalf("second recv err = %v, want EOF", err2)
	}
}

func TestSendOnClosedConnFails(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			c.Close(p)
			if err := c.Send(p, []byte("x")); err != ErrClosed {
				t.Errorf("send after close = %v, want ErrClosed", err)
			}
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, 4)
			c.Recv(p, buf)
		},
	)
}

func TestSizeOnlyStreamAccounting(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	const n = 100_000
	var got int
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			if err := c.SendSize(p, n); err != nil {
				t.Errorf("send: %v", err)
			}
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, 8192)
			for {
				m, err := c.Recv(p, buf)
				got += m
				if err == io.EOF {
					return
				}
			}
		},
	)
	if got != n {
		t.Fatalf("received %d bytes, want %d", got, n)
	}
}

func TestMixedRealAndSizeOnlyOrdering(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	var header [4]byte
	var trailer [4]byte
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			c.Send(p, []byte("HEAD"))
			c.SendSize(p, 5000)
			c.Send(p, []byte("TAIL"))
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			c.RecvFull(p, header[:])
			skip := make([]byte, 5000)
			c.RecvFull(p, skip)
			c.RecvFull(p, trailer[:])
		},
	)
	if string(header[:]) != "HEAD" || string(trailer[:]) != "TAIL" {
		t.Fatalf("framing lost: %q %q", header, trailer)
	}
}

func TestSlowConsumerBackpressure(t *testing.T) {
	cfg := LinuxCLANConfig()
	r := newRig(2, cfg)
	const total = 1 << 20
	var sendDone, recvStart sim.Time
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			c.SendSize(p, total)
			sendDone = p.Now()
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			// Do not read for a long time: the sender must stall on
			// the advertised window, not buffer a megabyte remotely.
			p.Sleep(50 * sim.Millisecond)
			recvStart = p.Now()
			buf := make([]byte, 64*1024)
			for {
				if _, err := c.Recv(p, buf); err == io.EOF {
					return
				}
			}
		},
	)
	if sendDone < recvStart {
		t.Fatalf("send finished at %v before reader started at %v: no backpressure", sendDone, recvStart)
	}
}

func TestWindowStallRecovers(t *testing.T) {
	// A sender fills the whole advertised window while the reader
	// sleeps; the reader's window update must un-stall it.
	cfg := LinuxCLANConfig()
	r := newRig(2, cfg)
	total := cfg.rcvBuf * 4
	var received int
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			c.SendSize(p, total)
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			p.Sleep(20 * sim.Millisecond)
			buf := make([]byte, 4096)
			for {
				n, err := c.Recv(p, buf)
				received += n
				if err == io.EOF {
					return
				}
			}
		},
	)
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestManySmallMessagesArrive(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	const count = 200
	var got int
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			for i := 0; i < count; i++ {
				c.Send(p, []byte{byte(i)})
			}
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, 64)
			for {
				n, err := c.Recv(p, buf)
				got += n
				if err == io.EOF {
					return
				}
			}
		},
	)
	if got != count {
		t.Fatalf("got %d bytes, want %d", got, count)
	}
}

func TestTwoConnectionsBetweenSameNodes(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	l2 := r.stacks[1].Listen(2)
	results := map[int]string{}
	r.k.Go("srv2", func(p *sim.Proc) {
		c, err := l2.Accept(p)
		if err != nil {
			t.Errorf("accept2: %v", err)
			return
		}
		buf := make([]byte, 3)
		c.RecvFull(p, buf)
		results[2] = string(buf)
	})
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			c2, err := r.stacks[0].Connect(p, "b", 2)
			if err != nil {
				t.Errorf("connect2: %v", err)
				return
			}
			c.Send(p, []byte("one"))
			c2.Send(p, []byte("two"))
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, 3)
			c.RecvFull(p, buf)
			results[1] = string(buf)
		},
	)
	if results[1] != "one" || results[2] != "two" {
		t.Fatalf("results = %v", results)
	}
}

func TestKTCPDeterministicReplay(t *testing.T) {
	run := func() sim.Time {
		r := newRig(3, LinuxCLANConfig())
		l := r.stacks[2].Listen(1)
		for i := 0; i < 2; i++ {
			i := i
			r.k.Go("cli", func(p *sim.Proc) {
				c, _ := r.stacks[i].Connect(p, "c", 1)
				c.SendSize(p, 300_000)
				c.Close(p)
			})
		}
		for i := 0; i < 2; i++ {
			r.k.Go("srv", func(p *sim.Proc) {
				c, _ := l.Accept(p)
				buf := make([]byte, 32*1024)
				for {
					if _, err := c.Recv(p, buf); err == io.EOF {
						return
					}
				}
			})
		}
		return r.k.RunAll()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
}

// measureTCPLatency returns one-way small-message latency via
// ping-pong.
func measureTCPLatency(size, iters int, cfg Config) sim.Time {
	r := newRig(2, cfg)
	l := r.stacks[1].Listen(1)
	var oneWay sim.Time
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			c.RecvFull(p, buf)
			c.SendSize(p, size)
		}
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		p.Sleep(sim.Millisecond)
		buf := make([]byte, size)
		start := p.Now()
		for i := 0; i < iters; i++ {
			c.SendSize(p, size)
			c.RecvFull(p, buf)
		}
		oneWay = (p.Now() - start) / sim.Time(2*iters)
	})
	r.k.RunAll()
	return oneWay
}

// measureTCPBandwidth returns streaming throughput in Mbps for
// back-to-back messages of the given size.
func measureTCPBandwidth(size, count int, cfg Config) float64 {
	r := newRig(2, cfg)
	l := r.stacks[1].Listen(1)
	var mbps float64
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 64*1024)
		total := 0
		start := sim.Time(-1)
		for {
			n, err := c.Recv(p, buf)
			if start < 0 && n > 0 {
				start = p.Now()
			}
			total += n
			if err == io.EOF {
				break
			}
		}
		mbps = sim.BitsPerSec(int64(total), p.Now()-start)
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		p.Sleep(sim.Millisecond)
		for i := 0; i < count; i++ {
			c.SendSize(p, size)
		}
		c.Close(p)
	})
	r.k.RunAll()
	return mbps
}

func TestCalibrationTCPLatency(t *testing.T) {
	got := measureTCPLatency(4, 50, LinuxCLANConfig())
	// Paper: traditional sockets over TCP ~5x SocketVIA's 9.5 us.
	if got < 42*sim.Microsecond || got > 55*sim.Microsecond {
		t.Fatalf("TCP 4-byte latency = %v, want ~47 us", got)
	}
}

func TestCalibrationTCPBandwidth(t *testing.T) {
	got := measureTCPBandwidth(64*1024, 100, LinuxCLANConfig())
	// Paper: 510 Mbps peak for TCP.
	if got < 480 || got > 540 {
		t.Fatalf("TCP 64K bandwidth = %.1f Mbps, want ~510", got)
	}
}

func TestNagleDelaysSubMSSSegments(t *testing.T) {
	on := LinuxCLANConfig()
	on.nagle = true
	off := LinuxCLANConfig()
	// With Nagle, a burst of tiny writes coalesces into fewer
	// segments than without.
	segs := func(cfg Config) uint64 {
		r := newRig(2, cfg)
		l := r.stacks[1].Listen(1)
		r.k.Go("srv", func(p *sim.Proc) {
			c, _ := l.Accept(p)
			buf := make([]byte, 4096)
			total := 0
			for total < 400 {
				n, err := c.Recv(p, buf)
				total += n
				if err == io.EOF {
					break
				}
			}
		})
		r.k.Go("cli", func(p *sim.Proc) {
			c, _ := r.stacks[0].Connect(p, "b", 1)
			p.Sleep(sim.Millisecond)
			for i := 0; i < 100; i++ {
				c.SendSize(p, 4)
			}
		})
		r.k.RunAll()
		return r.stacks[0].SegmentsOut()
	}
	withNagle, without := segs(on), segs(off)
	if withNagle >= without {
		t.Fatalf("Nagle segments %d !< no-Nagle segments %d", withNagle, without)
	}
}

func TestDelayedAckTimerFlushes(t *testing.T) {
	// One lone segment (ackEvery=2) must still get acked via the
	// delayed-ack timer so the sender's window state converges.
	cfg := LinuxCLANConfig()
	r := newRig(2, cfg)
	l := r.stacks[1].Listen(1)
	var acked bool
	r.k.Go("srv", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 64)
		c.Recv(p, buf)
	})
	r.k.Go("cli", func(p *sim.Proc) {
		c, _ := r.stacks[0].Connect(p, "b", 1)
		p.Sleep(sim.Millisecond)
		c.Send(p, []byte("x"))
		p.Sleep(5 * ackTimeout)
		acked = c.acked >= 1
	})
	r.k.RunAll()
	if !acked {
		t.Fatal("lone segment never acknowledged")
	}
}

// Softnet, the transmit engines and the adapter's egress stages (ack
// queue, DMA, wire) are event-context continuations: a stack, a
// listener and a connection's two ends start no process, and only the
// application's own threads are ever spawned.
func TestStackSpawnsNoProcesses(t *testing.T) {
	r := newRig(2, LinuxCLANConfig())
	if got := r.k.ProcsSpawned(); got != 0 {
		t.Fatalf("two stacks spawned %d processes, want 0", got)
	}
	r.pair(t,
		func(p *sim.Proc, c *Conn) { c.SendSize(p, 100_000); c.Close(p) },
		func(p *sim.Proc, c *Conn) { c.RecvFull(p, make([]byte, 100_000)); c.Close(p) })
	if got := r.k.ProcsSpawned(); got != 2 {
		t.Fatalf("%d processes spawned, want 2: the test's client and server", got)
	}
}

// Once a transfer is done and both ends are closed nothing of ktcp is
// left behind in the Go process. As processes, every stack left its
// softnet goroutine parked for good, and every connection that was not
// closed its transmit engine's.
func TestFinishedTransferLeavesNoKtcpGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	r := newRig(2, LinuxCLANConfig())
	r.stacks[0].newConn() // never connected, never closed
	r.pair(t,
		func(p *sim.Proc, c *Conn) { c.SendSize(p, 100_000); c.Close(p) },
		func(p *sim.Proc, c *Conn) { c.RecvFull(p, make([]byte, 100_000)); c.Close(p) })
	// The client and server have returned; their goroutines may need a
	// moment to unwind.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after the run, %d before it", got, before)
	}
}

// The ack stage drops a backlog of acks whose connection is gone in a
// loop: 10,000 of them fit the stack a test normally needs, all go
// back to the segment pool and the stage stays ready for a live ack.
func TestAckStageDropsStaleBacklogWithoutRecursion(t *testing.T) {
	const backlog = 10_000
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 10))
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	node := cluster.New(k, net).AddNode("a", cluster.DefaultConfig())
	st := NewStack(node, net, LinuxCLANConfig())
	k.After(10, func() {
		for i := 0; i < backlog; i++ {
			ack := st.allocSeg(true)
			ack.kind, ack.srcConn = segAck, 99
			_ = st.ackQ.TryPut(ack)
		}
	})
	k.RunAll()
	if st.ackQ.Len() != 0 || len(st.segPool) != backlog {
		t.Fatalf("%d acks still queued, %d segments recycled, want 0 and %d", st.ackQ.Len(), len(st.segPool), backlog)
	}
}

// A one-way stream recycles its segments: data segments go back to the
// sender that took them and acks to the receiver, so neither pool
// grows with the length of the stream, only with what a window holds.
func TestSegmentPoolsBoundedByWindow(t *testing.T) {
	cfg := LinuxCLANConfig()
	r := newRig(2, cfg)
	const total = 8 << 20
	r.pair(t,
		func(p *sim.Proc, c *Conn) {
			if err := c.SendSize(p, total); err != nil {
				t.Errorf("send: %v", err)
			}
			c.Close(p)
		},
		func(p *sim.Proc, c *Conn) {
			buf := make([]byte, 64<<10)
			got := 0
			for {
				n, err := c.Recv(p, buf)
				got += n
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
			}
			if got != total {
				t.Errorf("received %d bytes, want %d", got, total)
			}
		},
	)
	segments := int(r.stacks[0].SegmentsOut())
	window := (cfg.sndBuf + cfg.rcvBuf) / cfg.MSS
	for i, st := range r.stacks {
		if n := len(st.segPool); n == 0 || n > window {
			t.Errorf("stack %d pools %d segments after a %d-segment stream, want 1..%d (one window)",
				i, n, segments, window)
		}
	}
	if segments < 10*window {
		t.Fatalf("stream of %d segments is too short to tell a window (%d) from its length", segments, window)
	}
}
