// Package via emulates the Virtual Interface Architecture as
// implemented by the GigaNet cLAN adapters of the paper's testbed.
//
// The emulation reproduces the architectural elements user-level
// protocols program against: virtual interfaces (VIs) with send and
// receive work queues, descriptors, completion queues, registered
// memory, and a doorbell/DMA datapath. Costs are explicit: posting a
// descriptor costs user-level CPU time (no system call), the NIC
// serializes descriptors through a per-node DMA engine that models the
// 32-bit/33 MHz PCI bus, and frames cross the netsim wire.
// Reliable-delivery semantics are enforced: a message arriving at a VI
// with no posted receive descriptor breaks the connection, which is
// exactly why the SocketVIA layer above must run credit-based flow
// control.
package via

import "hpsockets/internal/sim"

// Status of a completed descriptor.
type Status uint8

const (
	// StatusOK means the transfer completed.
	StatusOK Status = iota
	// StatusRNR means the remote VI had no receive descriptor posted;
	// the connection is broken (reliable delivery).
	StatusRNR
	// StatusBroken means the connection was broken by an earlier error
	// or by the peer.
	StatusBroken
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRNR:
		return "rnr"
	case StatusBroken:
		return "broken"
	}
	return "unknown"
}

// Config holds the adapter parameters that callers vary; the cost
// model is the constants below.
type Config struct {
	// mtu is the maximum payload bytes per wire frame. The cLAN
	// adapter moves data in small cells; 2 KB frames give the
	// emulation intra-message pipelining across the DMA, wire and
	// receive stages, matching the measured latency curve's slope
	// without exploding the event count. Only this package's tests
	// vary it.
	mtu int

	// ConnTimeout bounds how long Connect waits for the acceptor's
	// acknowledgement; zero (the default) waits forever, preserving
	// the fault-free behaviour exactly.
	ConnTimeout sim.Time
}

// MaxTransfer is the largest descriptor the adapter accepts (64 KB in
// the VIA spec).
const MaxTransfer = 64 * 1024

// The cost model of the emulated adapter, calibrated against the
// paper's Figure 4 micro-benchmarks (one-way latency ~8.5 us for small
// messages, ~795 Mbps peak bandwidth at 64 KB on a 1.25 Gbps link
// behind a 32-bit 33 MHz PCI bus). All CPU costs are charged against
// the owning node's CPUs; NIC costs advance time without consuming
// host CPU.
const (
	// headerSize is the per-frame wire header.
	headerSize = 32

	// postSendCPU and postRecvCPU are the user-level costs of building
	// a descriptor and ringing the doorbell. No kernel transition.
	postSendCPU sim.Time = 1200 * sim.Nanosecond
	postRecvCPU sim.Time = 300 * sim.Nanosecond

	// nicTxPerDesc is adapter processing per send descriptor;
	// nicTxPerFrame and nicRxPerFrame are per-frame costs.
	nicTxPerDesc  sim.Time = 2600 * sim.Nanosecond
	nicTxPerFrame sim.Time = 150 * sim.Nanosecond
	nicRxPerFrame sim.Time = 500 * sim.Nanosecond

	// dmaPerByte (ns/byte) and dmaPerOp model the PCI bus the adapter
	// sits on, with arbitration/burst overheads. One engine per node
	// is shared by both directions.
	dmaPerByte float64  = 9.7
	dmaPerOp   sim.Time = 200 * sim.Nanosecond

	// cqDeliver is the adapter-side cost of writing a completion;
	// cqWakeup is the host cost of waking a blocked CQ waiter.
	cqDeliver sim.Time = 800 * sim.Nanosecond
	cqWakeup  sim.Time = 1600 * sim.Nanosecond

	// Memory registration costs (paid at setup time by SocketVIA's
	// buffer pools).
	regBase    sim.Time = 5 * sim.Microsecond
	regPerPage sim.Time = 1 * sim.Microsecond
	pageSize            = 4096

	// connSetupCPU is charged on each side during connection setup.
	connSetupCPU sim.Time = 10 * sim.Microsecond

	// txFIFODepth is the number of frames the adapter buffers between
	// the DMA stage and the wire stage; it sets how deeply DMA and
	// transmission pipeline.
	txFIFODepth = 2
)

// CLANConfig returns the adapter of the paper's testbed, with no
// connect timeout.
func CLANConfig() Config { return Config{mtu: 2 * 1024} }

// MemRegion is a registered memory region. VIA requires all buffers
// used in descriptors to be registered ahead of time.
type MemRegion struct {
	size       int
	registered bool
	// RDMA-exported regions carry backing storage remote writes land
	// in.
	rdma  bool
	bytes []byte
}

// Size reports the region size in bytes.
func (m *MemRegion) Size() int { return m.size }

// Desc is a work-queue descriptor. For sends, Len and Data describe
// the outgoing message (Data may be nil for size-only modelling). For
// receives, Len is the buffer capacity; on completion XferLen and Data
// describe what arrived.
type Desc struct {
	Region *MemRegion
	Len    int
	Data   []byte
	Ctx    any

	// Imm is the descriptor's immediate-data field; for sends it is
	// carried to the receiver and delivered in the matched receive
	// descriptor, as in the VIA descriptor control segment.
	Imm uint64

	// Completion results.
	Status  Status
	XferLen int
}

// Completion is an entry on a completion queue.
type Completion struct {
	VI     *VI
	Desc   *Desc
	IsRecv bool
	Status Status
}
