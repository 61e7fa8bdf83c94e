package netsim

import (
	"testing"

	"hpsockets/internal/sim"
)

// Additional wire-model behaviours: protocol coexistence on one port
// and fairness of the shared uplink.

func TestStacksShareOnePhysicalPort(t *testing.T) {
	// VIA and IP traffic from one host contend for the same uplink,
	// as native VIA and LANE traffic shared the cLAN adapter.
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	b := n.Attach("b")
	var arrivals []sim.Time
	b.Handle(ProtoVIA, func(f *Frame) { arrivals = append(arrivals, k.Now()) })
	b.Handle(ProtoIP, func(f *Frame) { arrivals = append(arrivals, k.Now()) })
	k.Go("via-tx", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 1000})
	})
	k.Go("ip-tx", func(p *sim.Proc) {
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoIP, Size: 1000})
	})
	k.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// The second frame serialized behind the first on the uplink.
	if arrivals[1]-arrivals[0] != 1000 {
		t.Fatalf("spacing = %v, want 1000ns (uplink serialization)", arrivals[1]-arrivals[0])
	}
}

func TestManyToOneSustainsDownlinkRate(t *testing.T) {
	// Four senders converge on one receiver: the aggregate arrival
	// rate is the downlink rate, not four times it.
	k := sim.NewKernel()
	n := testNet(k)
	dst := n.Attach("dst")
	var last sim.Time
	count := 0
	dst.Handle(ProtoVIA, func(f *Frame) { last = k.Now(); count++ })
	const perSender, size = 25, 1000
	for i := 0; i < 4; i++ {
		src := string(rune('a' + i))
		n.Attach(src)
		k.Go("tx-"+src, func(p *sim.Proc) {
			for j := 0; j < perSender; j++ {
				n.Transmit(p, &Frame{Src: src, Dst: "dst", Proto: ProtoVIA, Size: size})
			}
		})
	}
	k.RunAll()
	if count != 4*perSender {
		t.Fatalf("count = %d", count)
	}
	// 100 frames of 1000 ns serialization each: the last cannot land
	// before ~100 us of downlink occupancy.
	if last < 100*sim.Microsecond {
		t.Fatalf("last arrival at %v: downlink rate exceeded", last)
	}
}

func TestWireLatencyIndependentOfLoadWhenIdle(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	b := n.Attach("b")
	var gap sim.Time
	b.Handle(ProtoVIA, func(f *Frame) { gap = k.Now() })
	k.GoAfter(1000, "tx", func(p *sim.Proc) {
		start := p.Now()
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 100})
		_ = start
	})
	k.RunAll()
	// 100ns serialization + 100ns wire latency after the 1000ns start.
	if gap != 1200 {
		t.Fatalf("arrival = %v, want 1200", gap)
	}
}

func TestZeroSizeFramePanics(t *testing.T) {
	k := sim.NewKernel()
	n := testNet(k)
	n.Attach("a")
	n.Attach("b")
	k.Go("tx", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("zero-size frame did not panic")
			}
		}()
		n.Transmit(p, &Frame{Src: "a", Dst: "b", Proto: ProtoVIA, Size: 0})
	})
	k.RunAll()
}

func TestConfigAccessor(t *testing.T) {
	n := New(sim.NewKernel(), CLANConfig())
	if n.cfg.linkMbps != 1250 {
		t.Fatalf("cLAN link = %v Mbps", n.cfg.linkMbps)
	}
}
