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

// Config is the cost model and protocol parameters of the kernel path.
type Config struct {
	// MSS is the maximum segment payload (1460 for the 1500-byte LANE
	// MTU); HeaderSize covers Ethernet+IP+TCP framing on the wire.
	MSS        int
	HeaderSize int

	// SndBuf and RcvBuf are the socket buffer sizes. Send returns once
	// the data is buffered; it blocks while the send buffer is full.
	SndBuf int
	RcvBuf int

	// SendSyscall and RecvSyscall are per-call kernel transition
	// costs; CopyPerByteSend/Recv are the user<->kernel copy costs.
	SendSyscall     sim.Time
	RecvSyscall     sim.Time
	CopyPerByteSend float64
	CopyPerByteRecv float64

	// TxPerSegment is protocol processing per outgoing segment
	// (charged under the stack lock); RxPerSegment per incoming
	// segment (charged in softnet).
	TxPerSegment sim.Time
	RxPerSegment sim.Time

	// AckEvery generates one ack per N data segments (delayed ack);
	// AckTimeout flushes a pending ack when the stream goes quiet.
	// AckGen is the receiver-side cost of generating an ack;
	// AckProcessing the sender-side cost of absorbing one. AckSize is
	// its wire size.
	AckEvery      int
	AckTimeout    sim.Time
	AckGen        sim.Time
	AckProcessing sim.Time
	AckSize       int

	// WakeupCost is charged when a process blocked in recv (or a
	// full-buffer send) is woken by the stack.
	WakeupCost sim.Time

	// DMAPerByte and DMAPerOp model the adapter DMA for the LANE path.
	DMAPerByte float64
	DMAPerOp   sim.Time

	// ConnSetupCPU is charged on each side during connection setup.
	ConnSetupCPU sim.Time

	// Nagle enables sender-side coalescing of sub-MSS segments while
	// unacknowledged data is outstanding. DataCutter-style runtimes
	// set TCP_NODELAY, so the default profile disables it; it exists
	// for the ablation benches.
	Nagle bool

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

// LinuxCLANConfig returns the kernel path calibrated against the
// paper's Figure 4: ~47 us one-way small-message latency (about five
// times SocketVIA's 9.5 us) and ~510 Mbps peak bandwidth.
func LinuxCLANConfig() Config {
	return Config{
		MSS:             1460,
		HeaderSize:      58,
		SndBuf:          64 * 1024,
		RcvBuf:          64 * 1024,
		SendSyscall:     11 * sim.Microsecond,
		RecvSyscall:     7 * sim.Microsecond,
		CopyPerByteSend: 4.0,
		CopyPerByteRecv: 4.5,
		TxPerSegment:    6 * sim.Microsecond,
		RxPerSegment:    15 * sim.Microsecond,
		AckEvery:        2,
		AckTimeout:      500 * sim.Microsecond,
		AckGen:          3 * sim.Microsecond,
		AckProcessing:   5 * sim.Microsecond,
		AckSize:         58,
		WakeupCost:      14 * sim.Microsecond,
		DMAPerByte:      9.9,
		DMAPerOp:        400 * sim.Nanosecond,
		ConnSetupCPU:    30 * sim.Microsecond,
		Nagle:           false,
	}
}
