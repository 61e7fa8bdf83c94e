// Package netsim models the physical interconnect of the testbed: a
// central switch with a full-duplex point-to-point link per host, as
// in the GigaNet cLAN 5300 cluster the paper measured.
//
// Both protocol stacks (the VIA emulation and the kernel TCP path)
// share one physical port per host, so they contend for the same wire,
// exactly as LANE/IP traffic and native VIA traffic shared the cLAN
// adapter.
//
// Model: a frame sent from A to B first serializes onto A's uplink
// (a sim.Serializer, so concurrent senders on one host queue FIFO), then
// crosses the switch after a fixed cut-through latency, then
// serializes on B's downlink. Downlink serialization is computed with
// event arithmetic (a per-port horizon) rather than a process: it is
// exact for FIFO links and keeps the per-frame cost low.
package netsim

import (
	"fmt"

	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// Proto identifies which stack a frame belongs to, for demux at the
// receiving port.
type Proto uint8

const (
	// ProtoVIA frames carry native VIA packets.
	ProtoVIA Proto = iota
	// ProtoIP frames carry IP (kernel TCP) segments.
	ProtoIP
	numProtos
)

// Frame is one unit of wire transmission. Size is the on-wire size in
// bytes including all headers; Payload is stack-specific.
//
// Stacks on the hot path obtain frames from Network.NewFrame and the
// network recycles them after delivery; handlers must therefore not
// retain a frame past their return (the payload is theirs to keep).
// Frame literals still work — they are simply never pooled.
type Frame struct {
	Src, Dst string
	Proto    Proto
	Size     int
	Payload  any
	// Corrupt marks a frame damaged in flight by an installed
	// FaultModel. The frame is still delivered (and counted); the
	// receiving stack decides what a failed checksum means for it.
	Corrupt bool

	pooled bool
	// State of the in-flight transmission: the ports at either end,
	// the uplink serialization time, and for TransmitFunc what runs
	// once the frame is on the wire.
	srcPort, dstPort *Port
	ser              sim.Time
	sent             func()
	// Reusable thunks, created once per Frame object rather than per
	// transmission, so a pooled frame crosses the fabric without
	// allocating: uplinkEnd ends a TransmitFunc uplink hold, deliver
	// fires at the destination.
	uplinkEnd func()
	deliver   func()
}

// fire delivers the frame at its destination port. It runs in event
// context at the computed arrival time.
func (f *Frame) fire() { f.dstPort.deliverFrame(f) }

// endUplink runs in event context when the uplink hold TransmitFunc
// booked ends. The continuation is read first: launching may recycle
// the frame.
func (f *Frame) endUplink() {
	sent := f.sent
	f.sent = nil
	f.srcPort.net.launch(f)
	sent()
}

// Disposition is a FaultModel's verdict on one frame.
type Disposition int

const (
	// Deliver passes the frame through untouched.
	Deliver Disposition = iota
	// Drop loses the frame on the wire; it is never delivered.
	Drop
	// Corrupt delivers the frame with its Corrupt flag set.
	Corrupt
	// Reject loses the frame like Drop but models an active refusal
	// (aerolab's reject-vs-drop distinction: a RST-style bounce rather
	// than silent loss). Rejected frames count in both the rejected and
	// dropped counters so frame conservation still holds.
	Reject
)

// FaultModel decides the fate of each transmitted frame. It is
// consulted once per frame, in deterministic simulation order, so a
// model drawing from a seeded *rand.Rand reproduces bit-identically.
// No model installed (the default) means a flawless fabric.
type FaultModel interface {
	Judge(now sim.Time, f *Frame) Disposition
}

// Condition shapes the delivery of a frame that stays on the wire:
// netem-style added latency (with any jitter already sampled by the
// model), a bandwidth throttle below the link rate, and FIFO-bypassing
// reordering. The zero Condition delivers exactly as an unconditioned
// fabric would.
type Condition struct {
	// Delay is extra one-way latency added on top of the configured
	// wire latency for this frame.
	Delay sim.Time
	// RateMbps, when positive and below the link rate, narrows the
	// downlink serialization of this frame to the given bandwidth.
	RateMbps float64
	// Reorder delivers the frame without consulting or advancing the
	// destination's FIFO downlink horizon, so it may overtake frames
	// sent earlier (netem's reordering semantics).
	Reorder bool
}

// Verdict is a ConditionedFaultModel's combined ruling on one frame:
// its fate plus, for surviving frames, the link conditions shaping its
// delivery.
type Verdict struct {
	Disposition Disposition
	Cond        Condition
}

// ConditionedFaultModel extends FaultModel with per-frame link
// conditioning. When the installed model implements it, Transmit uses
// JudgeConditioned instead of Judge; models whose conditions are all
// zero behave byte-identically to the plain interface.
type ConditionedFaultModel interface {
	FaultModel
	JudgeConditioned(now sim.Time, f *Frame) Verdict
}

// Handler consumes frames arriving at a port for one protocol. It runs
// in event context and must not block; stacks typically enqueue into a
// sim.Queue and return.
type Handler func(*Frame)

// Port is one host's attachment to the switch.
type Port struct {
	net  *Network
	name string

	uplink *sim.Serializer // egress serialization, shared across stacks
	// downHorizon is the time the downlink becomes free; arrival times
	// are computed against it (event-arithmetic serialization).
	downHorizon sim.Time

	handlers [numProtos]Handler

	// counters
	sent      uint64
	received  uint64
	dropped   uint64
	rejected  uint64
	corrupted uint64
	txBytes   int64
	rxBytes   int64
}

// Name reports the port name.
func (p *Port) Name() string { return p.name }

// Sent reports the number of frames transmitted.
func (p *Port) Sent() uint64 { return p.sent }

// Received reports the number of frames delivered.
func (p *Port) Received() uint64 { return p.received }

// Dropped reports the number of frames addressed to this port that the
// installed FaultModel lost on the wire. For every port pair,
// Sent() at sources equals Received()+Dropped() summed at sinks.
func (p *Port) Dropped() uint64 { return p.dropped }

// Rejected reports how many of the dropped frames were active
// rejections rather than silent losses (Rejected() <= Dropped()).
func (p *Port) Rejected() uint64 { return p.rejected }

// Corrupted reports the number of frames delivered to this port with
// their Corrupt flag set.
func (p *Port) Corrupted() uint64 { return p.corrupted }

// TxBytes reports total bytes transmitted.
func (p *Port) TxBytes() int64 { return p.txBytes }

// RxBytes reports total bytes delivered.
func (p *Port) RxBytes() int64 { return p.rxBytes }

// Handle registers the frame handler for one protocol. Registering
// twice replaces the handler.
func (p *Port) Handle(proto Proto, h Handler) { p.handlers[proto] = h }

// Config describes the interconnect. Only this package's tests vary
// it; everything else runs CLANConfig.
type Config struct {
	// linkMbps is the signalling rate of each host link (1250 for the
	// 1.25 Gbps cLAN links of the testbed).
	linkMbps float64
	// wireLatency is the fixed propagation plus cut-through switch
	// latency for one traversal.
	wireLatency sim.Time
}

// CLANConfig returns the interconnect of the paper's testbed.
func CLANConfig() Config {
	return Config{linkMbps: 1250, wireLatency: 500 * sim.Nanosecond}
}

// Network is the switch plus all attached ports.
type Network struct {
	k     *sim.Kernel
	cfg   Config
	port  map[string]*Port
	fault FaultModel
	// condFault is fault when it also implements conditioning, cached
	// at SetFaultModel time to keep the per-frame path assertion-free.
	condFault ConditionedFaultModel

	// framePool recycles delivered frames. One pool per network keeps
	// it single-kernel (the simulation is single-threaded per kernel,
	// so no locking) and lets frames flow between stacks freely.
	framePool []*Frame
}

// NewFrame returns a frame from the pool (or a fresh one) initialized
// with the given envelope. The network reclaims it after delivery, or
// immediately if the fault model drops it.
func (n *Network) NewFrame(src, dst string, proto Proto, size int, payload any) *Frame {
	var f *Frame
	if ln := len(n.framePool); ln > 0 {
		f = n.framePool[ln-1]
		n.framePool[ln-1] = nil
		n.framePool = n.framePool[:ln-1]
	} else {
		f = &Frame{pooled: true}
	}
	f.Src, f.Dst, f.Proto, f.Size, f.Payload = src, dst, proto, size, payload
	f.Corrupt = false
	return f
}

// FreeFrame returns a pooled frame to the pool; frames built as
// literals are left alone. Callers must drop every reference to f.
func (n *Network) FreeFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	f.Payload = nil
	f.srcPort, f.dstPort = nil, nil
	n.framePool = append(n.framePool, f)
}

// SetFaultModel installs (or, with nil, removes) the fault model
// consulted on every transmit. With no model the fabric is flawless
// and the transmit path is byte-identical to a build without faults.
func (n *Network) SetFaultModel(m FaultModel) {
	n.fault = m
	n.condFault, _ = m.(ConditionedFaultModel)
}

// New returns an empty network on kernel k.
func New(k *sim.Kernel, cfg Config) *Network {
	if cfg.linkMbps <= 0 {
		panic("netsim: non-positive link bandwidth")
	}
	return &Network{k: k, cfg: cfg, port: make(map[string]*Port)}
}

// Attach creates (or returns) the port with the given name.
func (n *Network) Attach(name string) *Port {
	if p, ok := n.port[name]; ok {
		return p
	}
	p := &Port{net: n, name: name, uplink: sim.NewSerializer(n.k)}
	p.uplink.SetLabel("netsim/uplink")
	n.port[name] = p
	return p
}

// LookupPort returns the named port, or nil.
func (n *Network) LookupPort(name string) *Port { return n.port[name] }

// serialization reports how long size bytes occupy a link.
func (n *Network) serialization(size int) sim.Time {
	return sim.TransferTime(size, n.cfg.linkMbps)
}

// admit validates a frame for transmission and records its ports and
// uplink serialization time on it.
func (n *Network) admit(f *Frame) {
	var ok bool
	if f.srcPort, ok = n.port[f.Src]; !ok {
		panic(fmt.Sprintf("netsim: transmit from unknown port %q", f.Src))
	}
	if f.dstPort, ok = n.port[f.Dst]; !ok {
		panic(fmt.Sprintf("netsim: transmit to unknown port %q", f.Dst))
	}
	if f.Size <= 0 {
		panic("netsim: frame with non-positive size")
	}
	f.ser = n.serialization(f.Size)
}

// Transmit sends a frame, blocking p for the egress serialization of
// the frame on the source uplink (and behind any queued frames).
// Delivery at the destination happens asynchronously after the wire
// latency and downlink serialization.
func (n *Network) Transmit(p *sim.Proc, f *Frame) {
	n.admit(f)
	f.srcPort.uplink.Use(p, f.ser, 0)
	n.launch(f)
}

// TransmitFunc is Transmit for event context — an adapter's wire
// stage is hardware, not a thread: it books the same uplink hold and
// runs sent, after the frame's launch, as the event that would have
// woken Transmit's process.
func (n *Network) TransmitFunc(f *Frame, sent func()) {
	n.admit(f)
	f.sent = sent
	if f.uplinkEnd == nil {
		f.uplinkEnd = f.endUplink
	}
	f.srcPort.uplink.UseFunc(f.ser, 0, f.uplinkEnd)
}

// TransmitFrom starts an adapter's wire stage: from the next event on
// it transmits every frame put on q, one at a time in FIFO order,
// until q is closed and drained. The stage is a pair of continuations
// bound once here, so a frame's passage through it allocates nothing.
func (n *Network) TransmitFrom(q *sim.Queue[*Frame]) {
	var next func()
	got := func(f *Frame, ok bool) {
		if ok {
			n.TransmitFunc(f, next)
		}
	}
	next = func() { q.GetFunc(got) }
	n.k.After(0, next)
}

// launch puts an admitted frame on the wire once its uplink hold is
// over: it counts it, lets the fault model judge it and schedules its
// delivery.
func (n *Network) launch(f *Frame) {
	src, dst, ser := f.srcPort, f.dstPort, f.ser
	src.sent++
	src.txBytes += int64(f.Size)
	hpsmon.Count(n.k, "netsim", "frames.out", 1)
	hpsmon.Count(n.k, "netsim", "bytes.out", int64(f.Size))

	// Fault judgement happens after uplink serialization: the sender
	// always pays for the bits it put on the wire, whatever their fate.
	var cond Condition
	if n.fault != nil {
		var v Verdict
		if n.condFault != nil {
			v = n.condFault.JudgeConditioned(n.k.Now(), f)
		} else {
			v.Disposition = n.fault.Judge(n.k.Now(), f)
		}
		switch v.Disposition {
		case Drop:
			dst.dropped++
			hpsmon.Count(n.k, "netsim", "frames.dropped", 1)
			n.FreeFrame(f)
			return
		case Reject:
			dst.dropped++
			dst.rejected++
			hpsmon.Count(n.k, "netsim", "frames.dropped", 1)
			hpsmon.Count(n.k, "netsim", "frames.rejected", 1)
			n.FreeFrame(f)
			return
		case Corrupt:
			f.Corrupt = true
			hpsmon.Count(n.k, "netsim", "frames.corrupt", 1)
		}
		cond = v.Cond
	}

	// Cut-through switching: when the downlink is idle, bits flow
	// through the switch while the uplink is still serializing, so the
	// tail arrives one wire latency after it left the uplink. When the
	// downlink is draining earlier frames (converging traffic), this
	// frame queues behind them and pays its own serialization. Link
	// conditions stretch the path: extra one-way delay moves the tail,
	// a bandwidth throttle widens the downlink occupancy, and a
	// reordered frame skips the FIFO horizon entirely so it can
	// overtake earlier traffic.
	serDown := ser
	if cond.RateMbps > 0 {
		if s := sim.TransferTime(f.Size, cond.RateMbps); s > serDown {
			serDown = s
		}
	}
	// headAt is when the frame's head reaches the downlink; the tail
	// clears it one (possibly throttled) serialization later. With no
	// throttle headAt+serDown is exactly now+wireLatency+Delay, the
	// pre-conditioning arrival expression.
	headAt := n.k.Now() + n.cfg.wireLatency + cond.Delay - ser
	arrival := headAt + serDown
	if cond.Reorder {
		hpsmon.Count(n.k, "netsim", "frames.reordered", 1)
	} else {
		if q := dst.downHorizon + serDown; q > arrival {
			arrival = q
		}
		dst.downHorizon = arrival
	}
	if f.deliver == nil {
		f.deliver = f.fire
	}
	n.k.At(arrival, f.deliver)
}

func (p *Port) deliverFrame(f *Frame) {
	p.received++
	p.rxBytes += int64(f.Size)
	hpsmon.Count(p.net.k, "netsim", "frames.in", 1)
	hpsmon.Count(p.net.k, "netsim", "bytes.in", int64(f.Size))
	if f.Corrupt {
		p.corrupted++
		hpsmon.Count(p.net.k, "netsim", "frames.corrupt.in", 1)
	}
	h := p.handlers[f.Proto]
	if h == nil {
		panic(fmt.Sprintf("netsim: no handler for proto %d at port %q", f.Proto, p.name))
	}
	h(f)
	p.net.FreeFrame(f)
}
