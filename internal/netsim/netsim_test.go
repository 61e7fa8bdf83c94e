package netsim

import (
	"testing"

	"hpsockets/internal/sim"
)

// testNet returns a network with easy arithmetic: 8000 Mbps = 1 ns per
// byte, and 100 ns wire latency.
func testNet(k *sim.Kernel) *Network {
	return New(k, Config{linkMbps: 8000, wireLatency: 100})
}

func TestTransmitTiming(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	b := n.Attach("b")
	var deliveredAt sim.Time
	b.Handle(ProtoVIA, func(f *Frame) { deliveredAt = k.Now() })
	var sendDone sim.Time
	k.Go("tx", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 1000})
		sendDone = p.Now()
	})
	k.RunAll()
	// Uplink serialization: 1000 ns, then cut-through wire: 100.
	if sendDone != 1000 {
		t.Fatalf("send completed at %v, want 1000", sendDone)
	}
	if deliveredAt != 1100 {
		t.Fatalf("delivered at %v, want 1100", deliveredAt)
	}
}

func TestUplinkSerializesConcurrentSenders(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	b := n.Attach("b")
	var arrivals []sim.Time
	b.Handle(ProtoIP, func(f *Frame) { arrivals = append(arrivals, k.Now()) })
	for i := 0; i < 3; i++ {
		k.Go("tx", func(p *sim.Proc) {
			n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoIP, Size: 500})
		})
	}
	k.RunAll()
	want := []sim.Time{600, 1100, 1600} // 500ns apart after the first
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestDownlinkSerializesConvergingTraffic(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	n.Attach("b")
	c := n.Attach("c")
	var arrivals []sim.Time
	c.Handle(ProtoVIA, func(f *Frame) { arrivals = append(arrivals, k.Now()) })
	// Two hosts transmit simultaneously to c; their uplinks are
	// independent, so both frames hit c's downlink at the same time
	// and must serialize there.
	k.Go("txa", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "a", Dst: "c", Proto: ProtoVIA, Size: 1000})
	})
	k.Go("txb", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "b", Dst: "c", Proto: ProtoVIA, Size: 1000})
	})
	k.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// Both tails reach the switch at 1100; the second frame queues
	// behind the first on c's downlink and pays its serialization.
	if arrivals[0] != 1100 || arrivals[1] != 2100 {
		t.Fatalf("arrivals = %v, want [1100 2100]", arrivals)
	}
}

func TestPipeliningSustainsLinkRate(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	b := n.Attach("b")
	var last sim.Time
	count := 0
	b.Handle(ProtoVIA, func(f *Frame) { last = k.Now(); count++ })
	const frames, size = 100, 1000
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < frames; i++ {
			n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: size})
		}
	})
	k.RunAll()
	if count != frames {
		t.Fatalf("count = %d", count)
	}
	// Steady-state spacing is one serialization per frame: the last
	// tail leaves the uplink at frames*size*1ns and cuts through.
	want := sim.Time(frames*size + 100)
	if last != want {
		t.Fatalf("last arrival %v, want %v", last, want)
	}
}

func TestProtoDemux(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	b := n.Attach("b")
	var via, ip int
	b.Handle(ProtoVIA, func(f *Frame) { via++ })
	b.Handle(ProtoIP, func(f *Frame) { ip++ })
	k.Go("tx", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 10})
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoIP, Size: 10})
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoIP, Size: 10})
	})
	k.RunAll()
	if via != 1 || ip != 2 {
		t.Fatalf("via=%d ip=%d, want 1 2", via, ip)
	}
}

func TestPortCounters(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	a := n.Attach("a")
	b := n.Attach("b")
	b.Handle(ProtoVIA, func(f *Frame) {})
	k.Go("tx", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 100})
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 200})
	})
	k.RunAll()
	if a.Sent() != 2 || a.TxBytes() != 300 {
		t.Fatalf("a: sent=%d tx=%d", a.Sent(), a.TxBytes())
	}
	if b.Received() != 2 || b.RxBytes() != 300 {
		t.Fatalf("b: recv=%d rx=%d", b.Received(), b.RxBytes())
	}
}

func TestAttachIsIdempotent(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	a1 := n.Attach("a")
	a2 := n.Attach("a")
	if a1 != a2 {
		t.Fatal("Attach returned a different port for the same name")
	}
	if n.LookupPort("a") != a1 {
		t.Fatal("LookupPort mismatch")
	}
	if n.LookupPort("missing") != nil {
		t.Fatal("LookupPort on unknown name not nil")
	}
}

func TestTransmitToUnknownPortPanics(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	k.Go("tx", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("transmit to unknown port did not panic")
			}
		}()
		n.Transmit(p, &Frame{Src: "a", Dst: "nope", Proto: ProtoVIA, Size: 1})
	})
	k.RunAll()
}

func TestTransferTimeMatchesBandwidth(t *testing.T) {
	// 1250 Mbps -> 6.4 ns/byte.
	got := sim.TransferTime(1000, 1250)
	if got != 6400 {
		t.Fatalf("TransferTime = %v, want 6400", got)
	}
	mbps := sim.BitsPerSec(1000, 6400)
	if mbps < 1249 || mbps > 1251 {
		t.Fatalf("BitsPerSec = %v, want ~1250", mbps)
	}
}

// verdictModel gives every frame the same disposition.
type verdictModel Disposition

func (m verdictModel) Judge(sim.Time, *Frame) Disposition { return Disposition(m) }

// A frame the fault model drops, rejects or corrupts costs no
// allocation when no monitor is attached: the fault path reports only
// through the monitor, which builds nothing when it is absent.
func TestFaultVerdictsDoNotAllocate(t *testing.T) {
	for _, d := range []Disposition{Drop, Reject, Corrupt} {
		k := sim.NewKernel()
		n := testNet(k)
		n.Attach("a")
		b := n.Attach("b")
		corrupt := 0
		b.Handle(ProtoVIA, func(f *Frame) {
			if f.Corrupt {
				corrupt++
			}
			n.FreeFrame(f)
		})
		n.SetFaultModel(verdictModel(d))
		sent := func() {}
		got := testing.AllocsPerRun(100, func() {
			n.TransmitFunc(n.NewFrame("a", "b", ProtoVIA, 100, nil), sent)
			k.RunAll()
		})
		if got != 0 {
			t.Errorf("disposition %d: %v allocations per frame, want 0", d, got)
		}
		if b.Dropped() == 0 && corrupt == 0 {
			t.Errorf("disposition %d: no frame dropped or corrupted", d)
		}
	}
}
