package via

import (
	"testing"

	"hpsockets/internal/cluster"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// rig is a two-node VIA test fixture.
type rig struct {
	k        *sim.Kernel
	cl       *cluster.Cluster
	pa, pb   *Provider
	nodeA    *cluster.Node
	nodeB    *cluster.Node
	acceptor *Acceptor
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	cl := cluster.New(k, net)
	a := cl.AddNode("a", cluster.DefaultConfig())
	b := cl.AddNode("b", cluster.DefaultConfig())
	pa := NewProvider(a, net, cfg)
	pb := NewProvider(b, net, cfg)
	return &rig{k: k, cl: cl, pa: pa, pb: pb, nodeA: a, nodeB: b, acceptor: pb.Listen(1)}
}

// connectPair runs client and server processes and returns their VIs
// through the out parameters once the kernel runs.
func (r *rig) connectPair(t *testing.T, client func(p *sim.Proc, vi *VI), server func(p *sim.Proc, vi *VI)) {
	t.Helper()
	r.k.Go("server", func(p *sim.Proc) {
		scq, rcq := r.pb.NewCQ(), r.pb.NewCQ()
		vi, err := r.acceptor.Accept(p, scq, rcq)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		server(p, vi)
	})
	r.k.Go("client", func(p *sim.Proc) {
		scq, rcq := r.pa.NewCQ(), r.pa.NewCQ()
		vi := r.pa.NewVI(scq, rcq)
		if err := r.pa.Connect(p, vi, "b", 1); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		client(p, vi)
	})
	r.k.RunAll()
}

// sendMsg posts a send of n bytes with payload and waits for the send
// completion.
func sendMsg(t *testing.T, p *sim.Proc, vi *VI, reg *MemRegion, data []byte, n int) {
	t.Helper()
	d := &Desc{Region: reg, Len: n, Data: data}
	if err := vi.PostSend(p, d); err != nil {
		t.Errorf("post send: %v", err)
		return
	}
	c := vi.sendCQ.Wait(p)
	if c.Status != StatusOK {
		t.Errorf("send completion status %v", c.Status)
	}
}

// recvMsg posts a receive of capacity n and waits for its completion.
func recvMsg(t *testing.T, p *sim.Proc, vi *VI, reg *MemRegion, n int) *Desc {
	t.Helper()
	d := &Desc{Region: reg, Len: n}
	if err := vi.PostRecv(p, d); err != nil {
		t.Errorf("post recv: %v", err)
		return d
	}
	c := vi.recvCQ.Wait(p)
	if c.Status != StatusOK {
		t.Errorf("recv completion status %v", c.Status)
	}
	return c.Desc
}

func TestConnectAcceptEstablishesVIs(t *testing.T) {
	r := newRig(t, CLANConfig())
	var cvi, svi *VI
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) { cvi = vi },
		func(p *sim.Proc, vi *VI) { svi = vi },
	)
	if cvi == nil || svi == nil {
		t.Fatal("connection did not complete")
	}
	if !cvi.Connected() || !svi.Connected() {
		t.Fatal("VIs not connected")
	}
	if cvi.PeerPort() != "b" || svi.PeerPort() != "a" {
		t.Fatalf("peer ports %q %q", cvi.PeerPort(), svi.PeerPort())
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	r := newRig(t, CLANConfig())
	msg := []byte("hello, via")
	var got []byte
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 4096)
			sendMsg(t, p, vi, reg, msg, len(msg))
		},
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 4096)
			d := recvMsg(t, p, vi, reg, 4096)
			got = d.Data
			if d.XferLen != len(msg) {
				t.Errorf("xfer len %d, want %d", d.XferLen, len(msg))
			}
		},
	)
	if string(got) != string(msg) {
		t.Fatalf("payload %q, want %q", got, msg)
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	cfg := CLANConfig()
	cfg.mtu = 1024
	r := newRig(t, cfg)
	const n = 10_000
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i % 251)
	}
	var got []byte
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, n)
			sendMsg(t, p, vi, reg, msg, n)
		},
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, n)
			d := recvMsg(t, p, vi, reg, n)
			got = d.Data
		},
	)
	if len(got) != n {
		t.Fatalf("got %d bytes, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != msg[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestSizeOnlyMessages(t *testing.T) {
	r := newRig(t, CLANConfig())
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 64*1024)
			sendMsg(t, p, vi, reg, nil, 48*1024)
		},
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 64*1024)
			d := recvMsg(t, p, vi, reg, 64*1024)
			if d.XferLen != 48*1024 {
				t.Errorf("xfer len %d, want 48K", d.XferLen)
			}
			if d.Data != nil {
				t.Error("size-only message delivered data")
			}
		},
	)
}

func TestMessageOrderPreserved(t *testing.T) {
	r := newRig(t, CLANConfig())
	const count = 20
	var got []int
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 64)
			for i := 0; i < count; i++ {
				sendMsg(t, p, vi, reg, []byte{byte(i)}, 1)
			}
		},
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 64)
			for i := 0; i < count; i++ {
				d := recvMsg(t, p, vi, reg, 64)
				got = append(got, int(d.Data[0]))
			}
		},
	)
	for i := 0; i < count; i++ {
		if got[i] != i {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestMissingRecvDescriptorBreaksConnection(t *testing.T) {
	r := newRig(t, CLANConfig())
	var recvStatus, sendStatus Status
	var clientBrokenLater bool
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 64)
			d := &Desc{Region: reg, Len: 8, Data: []byte("12345678")}
			if err := vi.PostSend(p, d); err != nil {
				t.Errorf("post send: %v", err)
			}
			c := vi.sendCQ.Wait(p)
			sendStatus = c.Status // NIC completes before the remote RNR
			p.Sleep(100 * sim.Microsecond)
			clientBrokenLater = vi.Broken()
		},
		func(p *sim.Proc, vi *VI) {
			// Post no receive descriptor; wait for the error completion.
			c := vi.recvCQ.Wait(p)
			recvStatus = c.Status
			if !vi.Broken() {
				t.Error("server VI not broken after RNR")
			}
		},
	)
	if recvStatus != StatusRNR {
		t.Fatalf("recv status %v, want rnr", recvStatus)
	}
	if sendStatus != StatusOK {
		t.Fatalf("send status %v, want ok (completes at the NIC)", sendStatus)
	}
	if !clientBrokenLater {
		t.Fatal("client VI not broken after peer notification")
	}
}

func TestSendOnBrokenVIFails(t *testing.T) {
	r := newRig(t, CLANConfig())
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 64)
			d := &Desc{Region: reg, Len: 4, Data: []byte("abcd")}
			if err := vi.PostSend(p, d); err != nil {
				t.Errorf("first send: %v", err)
			}
			vi.sendCQ.Wait(p)
			p.Sleep(100 * sim.Microsecond) // let the break come back
			if err := vi.PostSend(p, d); err != ErrBroken {
				t.Errorf("send on broken VI: %v, want ErrBroken", err)
			}
		},
		func(p *sim.Proc, vi *VI) {
			vi.recvCQ.Wait(p) // the RNR error
		},
	)
}

func TestUnregisteredBufferRejected(t *testing.T) {
	r := newRig(t, CLANConfig())
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			d := &Desc{Region: &MemRegion{size: 64}, Len: 4}
			if err := vi.PostSend(p, d); err == nil {
				t.Error("unregistered send buffer accepted")
			}
			if err := vi.PostRecv(p, d); err == nil {
				t.Error("unregistered recv buffer accepted")
			}
		},
		func(p *sim.Proc, vi *VI) {},
	)
}

func TestOversizedDescriptorRejected(t *testing.T) {
	r := newRig(t, CLANConfig())
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 128*1024)
			d := &Desc{Region: reg, Len: MaxTransfer + 1}
			if err := vi.PostSend(p, d); err == nil {
				t.Error("oversized descriptor accepted")
			}
		},
		func(p *sim.Proc, vi *VI) {},
	)
}

func TestDescriptorLongerThanRegionRejected(t *testing.T) {
	r := newRig(t, CLANConfig())
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 16)
			d := &Desc{Region: reg, Len: 32}
			if err := vi.PostSend(p, d); err == nil {
				t.Error("descriptor longer than region accepted")
			}
		},
		func(p *sim.Proc, vi *VI) {},
	)
}

func TestDisconnectNotifiesPeer(t *testing.T) {
	r := newRig(t, CLANConfig())
	var remoteSawClose bool
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			vi.Provider().Disconnect(p, vi)
		},
		func(p *sim.Proc, vi *VI) {
			p.Sleep(sim.Millisecond)
			remoteSawClose = vi.RemoteClosed()
		},
	)
	if !remoteSawClose {
		t.Fatal("peer did not observe disconnect")
	}
}

func TestPreUnderstoodRecvDescriptorsMatchFIFO(t *testing.T) {
	r := newRig(t, CLANConfig())
	var lens []int
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 4096)
			for _, n := range []int{10, 20, 30} {
				sendMsg(t, p, vi, reg, nil, n)
			}
		},
		func(p *sim.Proc, vi *VI) {
			reg := vi.Provider().RegisterMem(p, 4096)
			// Pre-post all three descriptors, then collect completions.
			var descs []*Desc
			for i := 0; i < 3; i++ {
				d := &Desc{Region: reg, Len: 1024}
				if err := vi.PostRecv(p, d); err != nil {
					t.Errorf("post recv: %v", err)
				}
				descs = append(descs, d)
			}
			for i := 0; i < 3; i++ {
				c := vi.recvCQ.Wait(p)
				if c.Desc != descs[i] {
					t.Errorf("completion %d for wrong descriptor", i)
				}
				lens = append(lens, c.Desc.XferLen)
			}
		},
	)
	want := []int{10, 20, 30}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("lens = %v, want %v", lens, want)
		}
	}
}

func TestRegisterMemCharges(t *testing.T) {
	r := newRig(t, CLANConfig())
	var took sim.Time
	r.k.Go("reg", func(p *sim.Proc) {
		start := p.Now()
		r.pa.RegisterMem(p, 8*4096)
		took = p.Now() - start
	})
	r.k.RunAll()
	want := regBase + 8*regPerPage
	if took != want {
		t.Fatalf("registration took %v, want %v", took, want)
	}
}

func TestTwoVIsShareOneProviderIndependently(t *testing.T) {
	r := newRig(t, CLANConfig())
	acc2 := r.pb.Listen(2)
	got := map[int]string{}
	r.k.Go("server2", func(p *sim.Proc) {
		scq, rcq := r.pb.NewCQ(), r.pb.NewCQ()
		vi, err := acc2.Accept(p, scq, rcq)
		if err != nil {
			t.Errorf("accept2: %v", err)
			return
		}
		reg := r.pb.RegisterMem(p, 64)
		d := recvMsg(t, p, vi, reg, 64)
		got[2] = string(d.Data)
	})
	r.connectPair(t,
		func(p *sim.Proc, vi *VI) {
			// Also dial service 2 from node a.
			scq, rcq := r.pa.NewCQ(), r.pa.NewCQ()
			vi2 := r.pa.NewVI(scq, rcq)
			if err := r.pa.Connect(p, vi2, "b", 2); err != nil {
				t.Errorf("connect2: %v", err)
				return
			}
			reg := r.pa.RegisterMem(p, 64)
			sendMsg(t, p, vi, reg, []byte("one"), 3)
			sendMsg(t, p, vi2, reg, []byte("two"), 3)
		},
		func(p *sim.Proc, vi *VI) {
			reg := r.pb.RegisterMem(p, 64)
			d := recvMsg(t, p, vi, reg, 64)
			got[1] = string(d.Data)
		},
	)
	if got[1] != "one" || got[2] != "two" {
		t.Fatalf("got %v", got)
	}
}

func TestViaDeterministicReplay(t *testing.T) {
	run := func() sim.Time {
		k := sim.NewKernel()
		net := netsim.New(k, netsim.CLANConfig())
		cl := cluster.New(k, net)
		a := cl.AddNode("a", cluster.DefaultConfig())
		b := cl.AddNode("b", cluster.DefaultConfig())
		pa := NewProvider(a, net, CLANConfig())
		pb := NewProvider(b, net, CLANConfig())
		acc := pb.Listen(1)
		k.Go("srv", func(p *sim.Proc) {
			scq, rcq := pb.NewCQ(), pb.NewCQ()
			vi, _ := acc.Accept(p, scq, rcq)
			reg := pb.RegisterMem(p, 64*1024)
			for i := 0; i < 50; i++ {
				d := &Desc{Region: reg, Len: 64 * 1024}
				vi.PostRecv(p, d)
				vi.recvCQ.Wait(p)
			}
		})
		k.Go("cli", func(p *sim.Proc) {
			scq, rcq := pa.NewCQ(), pa.NewCQ()
			vi := pa.NewVI(scq, rcq)
			pa.Connect(p, vi, "b", 1)
			reg := pa.RegisterMem(p, 64*1024)
			for i := 0; i < 50; i++ {
				d := &Desc{Region: reg, Len: 1 + (i*997)%60000}
				vi.PostSend(p, d)
				vi.sendCQ.Wait(p)
			}
		})
		return k.RunAll()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
}

// All three NIC engines are event-context continuation chains, so a
// provider starts no process at all.
func TestProviderSpawnsNoProcesses(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, netsim.CLANConfig())
	node := cluster.New(k, net).AddNode("a", cluster.DefaultConfig())
	before := k.ProcsSpawned()
	NewProvider(node, net, CLANConfig())
	if got := k.ProcsSpawned() - before; got != 0 {
		t.Fatalf("NewProvider spawned %d processes, want 0", got)
	}
}
