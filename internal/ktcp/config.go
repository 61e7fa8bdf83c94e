// Package ktcp models the kernel-based sockets path of the testbed:
// TCP/IP through the Linux 2.2 kernel onto the cLAN adapter via the
// LANE (LAN emulation) driver.
//
// The model charges the costs the paper attributes to this path:
// system calls (kernel transition, cache/TLB effects folded into a
// per-call constant), data copies between user and kernel space on
// both sides, per-segment protocol processing, and ack traffic. All
// receive-side protocol processing for a node runs in one "softnet"
// context, reproducing the effectively serialized network stack of
// Linux 2.2 SMP (big kernel lock): aggregate receive throughput of a
// node does not scale with its second CPU, which is the mechanism
// behind the paper's observation that TCP cannot sustain more than
// ~3.25 full updates per second into the visualization node.
//
// Semantics are stream sockets: in-order reliable byte streams with a
// sliding send window bounded by the receiver's advertised window, so
// a slow consumer exerts backpressure on the producer exactly as real
// TCP does.
package ktcp

import "hpsockets/internal/sim"

// Config holds the protocol parameters of the kernel path that callers
// vary; the cost model is the constants below.
type Config struct {
	// MSS is the maximum segment payload (1460 for the 1500-byte LANE
	// MTU).
	MSS int

	// sndBuf and rcvBuf are the socket buffer sizes. Send returns once
	// the data is buffered; it blocks while the send buffer is full.
	// Only this package's tests vary them.
	sndBuf int
	rcvBuf int

	// nagle enables sender-side coalescing of sub-MSS segments while
	// unacknowledged data is outstanding. DataCutter-style runtimes
	// set TCP_NODELAY, so the default profile disables it; only this
	// package's tests turn it on.
	nagle bool

	// RTO is the retransmission timeout. Zero (the default profile)
	// disables retransmission entirely, preserving the flawless-fabric
	// behaviour bit for bit; fault scenarios set it to recover from
	// injected loss. Consecutive timeouts back off exponentially,
	// capped at 64x.
	RTO sim.Time
	// MaxRetries bounds consecutive retransmissions of the same data
	// (and of a SYN during connect) before the connection fails with
	// ErrTimeout. Only meaningful when RTO > 0.
	MaxRetries int
}

// The cost model of the kernel path, calibrated against the paper's
// Figure 4: ~47 us one-way small-message latency (about five times
// SocketVIA's 9.5 us) and ~510 Mbps peak bandwidth.
const (
	// headerSize covers Ethernet+IP+TCP framing on the wire.
	headerSize = 58

	// sendSyscall and recvSyscall are per-call kernel transition
	// costs; copyPerByteSend/Recv are the user<->kernel copy costs
	// (ns/byte).
	sendSyscall     sim.Time = 11 * sim.Microsecond
	recvSyscall     sim.Time = 7 * sim.Microsecond
	copyPerByteSend float64  = 4.0
	copyPerByteRecv float64  = 4.5

	// txPerSegment is protocol processing per outgoing segment
	// (charged under the stack lock); rxPerSegment per incoming
	// segment (charged in softnet).
	txPerSegment sim.Time = 6 * sim.Microsecond
	rxPerSegment sim.Time = 15 * sim.Microsecond

	// ackEvery generates one ack per N data segments (delayed ack);
	// ackTimeout flushes a pending ack when the stream goes quiet.
	// ackGen is the receiver-side cost of generating an ack;
	// ackProcessing the sender-side cost of absorbing one. ackSize is
	// its wire size.
	ackEvery               = 2
	ackTimeout    sim.Time = 500 * sim.Microsecond
	ackGen        sim.Time = 3 * sim.Microsecond
	ackProcessing sim.Time = 5 * sim.Microsecond
	ackSize                = 58

	// wakeupCost is charged when a process blocked in recv (or a
	// full-buffer send) is woken by the stack.
	wakeupCost sim.Time = 14 * sim.Microsecond

	// dmaPerByte (ns/byte) and dmaPerOp model the adapter DMA for the
	// LANE path.
	dmaPerByte float64  = 9.9
	dmaPerOp   sim.Time = 400 * sim.Nanosecond

	// connSetupCPU is charged on each side during connection setup.
	connSetupCPU sim.Time = 30 * sim.Microsecond

	// nicQDepth is the number of frames the LANE driver queues for the
	// adapter; wireFIFODepth the number the adapter buffers between its
	// DMA stage and the wire, which sets how deeply they pipeline.
	nicQDepth     = 32
	wireFIFODepth = 2
)

// LinuxCLANConfig returns the kernel path of the paper's testbed, with
// retransmission off.
func LinuxCLANConfig() Config {
	return Config{MSS: 1460, sndBuf: 64 * 1024, rcvBuf: 64 * 1024}
}
