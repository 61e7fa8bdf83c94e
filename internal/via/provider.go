package via

import (
	"fmt"

	"hpsockets/internal/cluster"
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/netsim"
	"hpsockets/internal/sim"
)

// packet kinds on the wire.
type pkKind uint8

const (
	pkData pkKind = iota
	pkRDMA
	pkConnReq
	pkConnAck
	pkBreak
	pkDisconnect
)

// packet is the VIA wire format carried in netsim frames.
type packet struct {
	kind    pkKind
	srcPort string
	srcVI   uint32
	dstVI   uint32
	svc     int // service number for connect requests

	// seq numbers every data/RDMA frame on a VI so the receiver can
	// detect a frame the fault model dropped (reliable delivery turns
	// loss into a broken connection). Control frames carry no seq.
	seq uint64
	// corrupt mirrors netsim.Frame.Corrupt into the packet at the
	// port handler, where the frame envelope is still in hand.
	corrupt bool

	// data fragments. frag is this fragment's view of the bytes; msg,
	// when non-nil, is the whole message's private wire buffer that
	// every fragment of the message aliases (see txDescLoop), so the
	// receiver can complete the descriptor with zero reassembly copies.
	msgLen  int
	fragLen int
	frag    []byte
	msg     []byte
	first   bool
	last    bool
	imm     uint64

	// RDMA write targeting
	rdmaHandle uint32
	rdmaOffset int

	// pooled marks a packet owned by a provider free list. The
	// receive engine frees every packet it consumes; the frag slice
	// is handed off to the matched descriptor, never recycled.
	pooled bool
}

// sendWork is one posted send descriptor awaiting the NIC.
type sendWork struct {
	vi   *VI
	desc *Desc

	rdma       bool
	rdmaHandle uint32
	rdmaOffset int
}

// connReq is a pending inbound connection.
type connReq struct {
	srcPort string
	srcVI   uint32
}

// Acceptor delivers inbound connection requests for one service.
type Acceptor struct {
	pr  *Provider
	svc int
	q   *sim.Queue[*connReq]
}

// Provider is the emulated VIA adapter of one node: the user-level
// library state plus the NIC engines: descriptor fetch with DMA, and
// RX, running as simulation processes, and wire TX as event-context
// continuations.
type Provider struct {
	node *cluster.Node
	net  *netsim.Network
	cfg  Config
	// dma stays a counted Resource rather than a sim.Serializer: the
	// engine is contended from both directions (tx fragments against rx
	// fragments), and the serializer's collapse of the acquire/release
	// protocol assigns the wake-up's queue position at arrival instead
	// of at release, flipping same-instant event orderings that the
	// byte-identity guarantee of the figures pins down.
	dma *sim.Resource

	vis    map[uint32]*VI
	nextVI uint32

	rdmaRegions map[uint32]*MemRegion
	nextRDMA    uint32

	sendWQ    *sim.Queue[*sendWork]
	txFIFO    *sim.Queue[*netsim.Frame]
	rxQ       *sim.Queue[*packet]
	listeners map[int]*Acceptor

	descsSent uint64
	descsRecv uint64

	// descPressure, when set, is consulted as each inbound message
	// matches its receive descriptor; returning true makes the adapter
	// behave as if the descriptor pool were exhausted (the RNR break
	// path). Fault injection uses this to model descriptor pressure.
	descPressure func() bool

	// Free lists for the per-fragment wire objects. Packets freed by
	// a receiving provider may have been allocated by the sender's —
	// same kernel, so the migration is race-free.
	pkPool []*packet
	swPool []*sendWork
}

// newPacket returns a zeroed packet from the pool (or a fresh one).
func (pr *Provider) newPacket() *packet {
	if n := len(pr.pkPool); n > 0 {
		pk := pr.pkPool[n-1]
		pr.pkPool[n-1] = nil
		pr.pkPool = pr.pkPool[:n-1]
		return pk
	}
	return &packet{pooled: true}
}

// freePacket recycles a fully consumed packet. The frag reference is
// dropped, not reused: receive matching may have handed it to a
// completed descriptor.
func (pr *Provider) freePacket(pk *packet) {
	if pk == nil || !pk.pooled {
		return
	}
	*pk = packet{pooled: true}
	pr.pkPool = append(pr.pkPool, pk)
}

// newSendWork returns a zeroed send-work item from the pool.
func (pr *Provider) newSendWork() *sendWork {
	if n := len(pr.swPool); n > 0 {
		w := pr.swPool[n-1]
		pr.swPool[n-1] = nil
		pr.swPool = pr.swPool[:n-1]
		return w
	}
	return &sendWork{}
}

func (pr *Provider) freeSendWork(w *sendWork) {
	*w = sendWork{}
	pr.swPool = append(pr.swPool, w)
}

// SetDescPressure installs (or with nil removes) the descriptor
// exhaustion hook. Must be deterministic (seeded) to keep runs
// reproducible.
func (pr *Provider) SetDescPressure(fn func() bool) { pr.descPressure = fn }

// NewProvider attaches an emulated VIA adapter to the node and starts
// its NIC engines.
func NewProvider(node *cluster.Node, net *netsim.Network, cfg Config) *Provider {
	if cfg.MTU <= 0 || cfg.MaxTransfer <= 0 || cfg.PageSize <= 0 {
		panic("via: invalid config")
	}
	k := node.Kernel()
	pr := &Provider{
		node:        node,
		net:         net,
		cfg:         cfg,
		dma:         sim.NewResource(k, 1),
		vis:         make(map[uint32]*VI),
		nextVI:      1,
		rdmaRegions: make(map[uint32]*MemRegion),
		sendWQ:      sim.NewQueue[*sendWork](k, 0),
		txFIFO:      sim.NewQueue[*netsim.Frame](k, cfg.TxFIFODepth),
		rxQ:         sim.NewQueue[*packet](k, 0),
		listeners:   make(map[int]*Acceptor),
	}
	pr.dma.SetLabel("via/dma")
	pr.sendWQ.SetLabel("via/send-wq")
	pr.txFIFO.SetLabel("via/tx-fifo")
	pr.rxQ.SetLabel("via/rx-softirq")
	node.Port().Handle(netsim.ProtoVIA, func(f *netsim.Frame) {
		pk := f.Payload.(*packet)
		if f.Corrupt {
			pk.corrupt = true
		}
		_ = pr.rxQ.TryPut(pk)
	})
	k.Go("via-txdesc/"+node.Name(), pr.txDescLoop)
	// The wire stage pipelines with the DMA stage through the bounded
	// txFIFO.
	net.TransmitFrom(pr.txFIFO)
	k.Go("via-rx/"+node.Name(), pr.rxLoop)
	return pr
}

// Node reports the provider's host.
func (pr *Provider) Node() *cluster.Node { return pr.node }

// Config reports the cost model in use.
func (pr *Provider) Config() Config { return pr.cfg }

// DescsSent and DescsRecv report completed descriptor counts.
func (pr *Provider) DescsSent() uint64 { return pr.descsSent }

// DescsRecv reports completed receive descriptor counts.
func (pr *Provider) DescsRecv() uint64 { return pr.descsRecv }

// RegisterMem registers a buffer of the given size, charging the
// kernel-mediated pin/translate cost, and returns the region handle.
func (pr *Provider) RegisterMem(p *sim.Proc, size int) *MemRegion {
	if size <= 0 {
		panic("via: register non-positive size")
	}
	pages := (size + pr.cfg.PageSize - 1) / pr.cfg.PageSize
	pr.node.Overhead(p, pr.cfg.RegBase+sim.Time(pages)*pr.cfg.RegPerPage)
	return &MemRegion{size: size, registered: true}
}

// Listen registers a service number and returns its acceptor.
func (pr *Provider) Listen(svc int) *Acceptor {
	if _, ok := pr.listeners[svc]; ok {
		panic(fmt.Sprintf("via: service %d already listening on %s", svc, pr.node.Name()))
	}
	a := &Acceptor{pr: pr, svc: svc, q: sim.NewQueue[*connReq](pr.node.Kernel(), 0)}
	a.q.SetLabel("via/accept")
	pr.listeners[svc] = a
	return a
}

// dmaUse charges one DMA transaction of n bytes on the shared engine.
func (pr *Provider) dmaUse(p *sim.Proc, n int) {
	d := pr.cfg.DMAPerOp + sim.Time(float64(n)*pr.cfg.DMAPerByte+0.5)
	pr.dma.Use(p, 1, d)
}

// sendControl queues a small control frame directly to the wire stage.
func (pr *Provider) sendControl(p *sim.Proc, dst string, kind pkKind, srcVI, dstVI uint32, svc int) {
	pk := pr.newPacket()
	pk.kind, pk.srcPort, pk.srcVI, pk.dstVI, pk.svc = kind, pr.node.Name(), srcVI, dstVI, svc
	pr.txFIFO.Put(p, pr.net.NewFrame(pr.node.Name(), dst, netsim.ProtoVIA, pr.cfg.HeaderSize+16, pk))
}

// txDescLoop is the NIC descriptor-fetch and DMA engine: it drains the
// send work queue, fragments each descriptor at the MTU, DMAs each
// fragment across the PCI bus and hands frames to the wire stage.
func (pr *Provider) txDescLoop(p *sim.Proc) {
	for {
		w, ok := pr.sendWQ.Get(p)
		if !ok {
			return
		}
		vi, desc := w.vi, w.desc
		rdma, rdmaHandle, rdmaOffset := w.rdma, w.rdmaHandle, w.rdmaOffset
		pr.freeSendWork(w)
		if vi.state != viConnected {
			desc.Status = StatusBroken
			vi.sendCQ.post(Completion{VI: vi, Desc: desc, Status: StatusBroken})
			continue
		}
		sc := hpsmon.Begin(p, "via", "send-desc", vi.peerPort)
		p.Sleep(pr.cfg.NICTxPerDesc)
		// The DMA engine reads the message out of host memory into one
		// private wire buffer; every fragment aliases a window of it, so
		// the host buffer may be reused as soon as the send completes
		// and the receiver can hand the assembled message to its
		// descriptor without a reassembly copy. The simulated DMA cost
		// is still charged per fragment below — only the real-memory
		// traffic collapses to one copy per message.
		var wireBuf []byte
		if desc.Data != nil {
			wireBuf = append([]byte(nil), desc.Data[:desc.Len]...)
		}
		remaining := desc.Len
		offset := 0
		first := true
		for {
			n := remaining
			if n > pr.cfg.MTU {
				n = pr.cfg.MTU
			}
			pr.dmaUse(p, n)
			p.Sleep(pr.cfg.NICTxPerFrame)
			pk := pr.newPacket()
			pk.kind = pkData
			pk.srcPort = pr.node.Name()
			pk.srcVI = vi.id
			pk.dstVI = vi.peerVI
			pk.seq = vi.txSeq
			pk.msgLen = desc.Len
			pk.fragLen = n
			if wireBuf != nil {
				pk.frag = wireBuf[offset : offset+n]
				pk.msg = wireBuf
			}
			pk.first = first
			pk.last = remaining-n == 0
			pk.imm = desc.Imm
			vi.txSeq++
			if rdma {
				pk.kind = pkRDMA
				pk.rdmaHandle = rdmaHandle
				pk.rdmaOffset = rdmaOffset + offset
			}
			pr.txFIFO.Put(p, pr.net.NewFrame(pr.node.Name(), vi.peerPort,
				netsim.ProtoVIA, pr.cfg.HeaderSize+n, pk))
			first = false
			offset += n
			remaining -= n
			if remaining == 0 {
				break
			}
		}
		p.Sleep(pr.cfg.CQDeliver)
		desc.Status = StatusOK
		desc.XferLen = desc.Len
		pr.descsSent++
		pr.node.Kernel().Trace("via", "send-complete", int64(desc.Len), vi.peerPort)
		hpsmon.Count(pr.node.Kernel(), "via", "descs.sent", 1)
		hpsmon.Count(pr.node.Kernel(), "via", "bytes.sent", int64(desc.Len))
		vi.sendCQ.post(Completion{VI: vi, Desc: desc, Status: StatusOK})
		sc.End()
	}
}

// rxLoop is the NIC receive engine: per-frame processing, DMA into
// registered host memory, descriptor matching and completion delivery.
// Every consumed packet is recycled; the frag payload (if any) has
// been handed off or copied by then.
func (pr *Provider) rxLoop(p *sim.Proc) {
	for {
		pk, ok := pr.rxQ.Get(p)
		if !ok {
			return
		}
		pr.handlePacket(p, pk)
		pr.freePacket(pk)
	}
}

// handlePacket demultiplexes one inbound packet. It must not retain
// the packet past its return (the frag slice may be retained — its
// ownership transfers to the receiving VI).
func (pr *Provider) handlePacket(p *sim.Proc, pk *packet) {
	if pk.corrupt && pk.kind != pkData && pk.kind != pkRDMA {
		// A corrupted control frame fails its checksum and is
		// silently discarded; higher layers recover by timeout.
		pr.node.Kernel().Trace("via", "ctrl-corrupt-drop", 0, pk.srcPort)
		return
	}
	switch pk.kind {
	case pkConnReq:
		a := pr.listeners[pk.svc]
		if a == nil {
			panic(fmt.Sprintf("via: connect to unbound service %d on %s", pk.svc, pr.node.Name()))
		}
		_ = a.q.TryPut(&connReq{srcPort: pk.srcPort, srcVI: pk.srcVI})
	case pkConnAck:
		vi := pr.vis[pk.dstVI]
		if vi == nil {
			return
		}
		vi.peerPort = pk.srcPort
		vi.peerVI = pk.srcVI
		vi.state = viConnected
		vi.connSig.Fire(nil)
	case pkBreak:
		vi := pr.vis[pk.dstVI]
		if vi == nil || vi.state == viBroken {
			return
		}
		vi.breakLocal()
	case pkDisconnect:
		vi := pr.vis[pk.dstVI]
		if vi == nil {
			return
		}
		vi.remoteClosed = true
		if vi.closeSig != nil && !vi.closeSig.Fired() {
			vi.closeSig.Fire(nil)
		}
	case pkData:
		pr.rxData(p, pk)
	case pkRDMA:
		pr.rxRDMA(p, pk)
	}
}

// lossBreak tears a VI down after the receive engine detected wire
// damage — a sequence gap left by a dropped frame, or a failed
// checksum on a corrupted one. Reliable delivery has no retransmit:
// the connection breaks, the peer is notified, and local waiters wake
// with error completions (directly, when no descriptors were posted
// for breakLocal to flush).
func (pr *Provider) lossBreak(p *sim.Proc, vi *VI, why string, n int) {
	pr.node.Kernel().Trace("via", "loss-break", int64(n), why)
	hpsmon.Instant(p, "via", "loss-break", why)
	hadRecvs := vi.recvDescs.Len() > 0
	vi.breakLocal()
	pr.sendControl(p, vi.peerPort, pkBreak, vi.id, vi.peerVI, 0)
	if !hadRecvs {
		vi.recvCQ.post(Completion{VI: vi, IsRecv: true, Status: StatusBroken})
	}
}

func (pr *Provider) rxData(p *sim.Proc, pk *packet) {
	vi := pr.vis[pk.dstVI]
	if vi == nil || vi.state == viBroken {
		return // stale frame after teardown: drop
	}
	p.Sleep(pr.cfg.NICRxPerFrame)
	pr.dmaUse(p, pk.fragLen)
	if pk.corrupt {
		pr.lossBreak(p, vi, "checksum "+pk.srcPort, pk.fragLen)
		return
	}
	if pk.seq != vi.rxSeq {
		pr.lossBreak(p, vi, fmt.Sprintf("seq gap %d!=%d %s", pk.seq, vi.rxSeq, pk.srcPort), pk.fragLen)
		return
	}
	vi.rxSeq++
	if pk.first {
		vi.curLen = 0
		vi.curMsg = nil
		vi.curParts = vi.curParts[:0]
	}
	vi.curLen += pk.fragLen
	if pk.msg != nil {
		// Every fragment of the message aliases one private wire
		// buffer; in-order reliable delivery (the seq check above)
		// guarantees that by the last fragment the whole buffer has
		// arrived, so no per-part accumulation is needed.
		vi.curMsg = pk.msg
	} else if pk.frag != nil {
		vi.curParts = append(vi.curParts, pk.frag)
	}
	if !pk.last {
		return
	}
	// Message complete: match the head receive descriptor. Injected
	// descriptor pressure makes the adapter treat the pool as
	// exhausted even when a descriptor is posted.
	pressured := pr.descPressure != nil && pr.descPressure()
	desc, ok := vi.recvDescs.TryGet()
	if pressured {
		pr.node.Kernel().Trace("via", "desc-pressure", int64(vi.curLen), pk.srcPort)
		hpsmon.Count(pr.node.Kernel(), "via", "desc.pressure", 1)
	}
	if !ok || pressured || desc.Len < vi.curLen {
		// Reliable delivery with no (or too small a) receive
		// descriptor: the connection breaks. Notify the peer.
		pr.node.Kernel().Trace("via", "rnr-break", int64(vi.curLen), pk.srcPort)
		hpsmon.Instant(p, "via", "rnr-break", pk.srcPort)
		vi.breakLocal()
		pr.sendControl(p, vi.peerPort, pkBreak, vi.id, vi.peerVI, 0)
		if !ok {
			vi.recvCQ.post(Completion{VI: vi, IsRecv: true, Status: StatusRNR})
		} else {
			desc.Status = StatusRNR
			vi.recvCQ.post(Completion{VI: vi, Desc: desc, IsRecv: true, Status: StatusRNR})
		}
		return
	}
	desc.Status = StatusOK
	desc.XferLen = vi.curLen
	desc.Imm = pk.imm
	if vi.curMsg != nil {
		// Zero-copy hand-off: the descriptor aliases the sender's
		// private wire buffer. Nothing else retains it — the sender
		// allocated it for this message alone and netsim never mutates
		// payload bytes (corruption is an envelope flag) — so ownership
		// transfers cleanly to the application.
		desc.Data = vi.curMsg
		vi.curMsg = nil
	} else if len(vi.curParts) == 1 {
		desc.Data = vi.curParts[0]
	} else if len(vi.curParts) > 1 {
		buf := make([]byte, 0, vi.curLen)
		for _, part := range vi.curParts {
			buf = append(buf, part...)
		}
		desc.Data = buf
	} else {
		desc.Data = nil
	}
	vi.curParts = vi.curParts[:0]
	vi.rxMsgs++
	pr.descsRecv++
	pr.node.Kernel().Trace("via", "recv-complete", int64(desc.XferLen), pk.srcPort)
	hpsmon.Count(pr.node.Kernel(), "via", "descs.recv", 1)
	hpsmon.Count(pr.node.Kernel(), "via", "bytes.recv", int64(desc.XferLen))
	p.Sleep(pr.cfg.CQDeliver)
	vi.recvCQ.post(Completion{VI: vi, Desc: desc, IsRecv: true, Status: StatusOK})
}
