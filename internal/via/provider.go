package via

import (
	"fmt"

	"hpsockets/internal/cluster"
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
	// every fragment of the message aliases (see txEngine.run), so the
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
// library state plus the NIC engines (descriptor fetch with DMA,
// receive, wire TX). The engines are hardware and run as event-context
// continuations (engine.go); the provider starts no process.
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
	tx        txEngine
	rx        rxEngine
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
	if cfg.mtu <= 0 {
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
		txFIFO:      sim.NewQueue[*netsim.Frame](k, txFIFODepth),
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
	pr.tx.got = pr.tx.onGot
	pr.tx.start(pr, "via-txdesc/", pr.tx.run, pr.tx.onPut)
	// The wire stage pipelines with the DMA stage through the bounded
	// txFIFO.
	net.TransmitFrom(pr.txFIFO)
	pr.rx.got = pr.rx.onGot
	pr.rx.start(pr, "via-rx/", pr.rx.run, pr.rx.onPut)
	return pr
}

// Node reports the provider's host.
func (pr *Provider) Node() *cluster.Node { return pr.node }

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
	pages := (size + pageSize - 1) / pageSize
	pr.node.Overhead(p, regBase+sim.Time(pages)*regPerPage)
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

// controlFrame builds a small control frame for the wire stage.
func (pr *Provider) controlFrame(dst string, kind pkKind, srcVI, dstVI uint32, svc int) *netsim.Frame {
	pk := pr.newPacket()
	pk.kind, pk.srcPort, pk.srcVI, pk.dstVI, pk.svc = kind, pr.node.Name(), srcVI, dstVI, svc
	return pr.net.NewFrame(pr.node.Name(), dst, netsim.ProtoVIA, headerSize+16, pk)
}

// sendControl queues a control frame directly to the wire stage.
func (pr *Provider) sendControl(p *sim.Proc, dst string, kind pkKind, srcVI, dstVI uint32, svc int) {
	pr.txFIFO.Put(p, pr.controlFrame(dst, kind, srcVI, dstVI, svc))
}
