package core

import "hpsockets/internal/sim"

// SVConfig carries the SocketVIA protocol parameters that callers
// vary; the user-level costs are the constants below. The defaults
// reproduce the substrate of the paper; the ablation benches sweep
// ChunkSize, Credits and RendezvousThreshold.
type SVConfig struct {
	// ChunkSize is the eager buffer size: sends larger than one chunk
	// are pipelined through the pool chunk by chunk.
	ChunkSize int
	// Credits is the number of data receive descriptors pre-posted per
	// connection; it bounds un-consumed data in flight (the SocketVIA
	// equivalent of the TCP advertised window).
	Credits int
	// CreditBatch is how many consumed descriptors accumulate before a
	// credit-update message returns them to the sender.
	CreditBatch int
	// RendezvousThreshold switches sends at or above this size to the
	// zero-copy RDMA rendezvous path (0 disables it). This implements
	// the paper's future-work push model; see rendezvous.go.
	RendezvousThreshold int
	// DialTimeout bounds how long Dial waits for the acceptor's ready
	// message after VIA connection setup; zero (the default) waits
	// forever, exactly as the fault-free model always has.
	DialTimeout sim.Time
}

// The user-level costs of the SocketVIA layer, calibrated to ~9.5 us
// small-message latency and ~763 Mbps peak bandwidth over the CLAN VIA
// profile, matching the paper's micro-benchmarks.
const (
	// svCopyPerByte is the memcpy cost (ns/byte) between user buffers
	// and the registered pools, charged on the CPU of the copying side.
	svCopyPerByte float64 = 2.0
	// svProcCost is the per-call bookkeeping cost of the sockets layer.
	svProcCost sim.Time = 250 * sim.Nanosecond
	// svReaderWakeup is charged when a blocked Recv or credit-starved
	// Send is woken by the progress process.
	svReaderWakeup sim.Time = 800 * sim.Nanosecond
)

// DefaultSVConfig returns the calibrated SocketVIA layer.
func DefaultSVConfig() SVConfig {
	return SVConfig{ChunkSize: 8 * 1024, Credits: 16, CreditBatch: 4}
}

// ctrlSlack is the number of extra receive descriptors posted beyond
// the data credits. Control messages (credit updates, FIN, rendezvous
// control) consume descriptors from the same FIFO pool as data; their
// count in flight is structurally bounded by
// ceil(Credits/CreditBatch) updates, one FIN, one final flush, and at
// most three rendezvous control messages (one un-granted request, one
// grant, one done — sends are serialized), which this slack covers.
// The progress process reposts a control-consumed descriptor
// immediately, so the bound never grows.
func (c SVConfig) ctrlSlack() int {
	return (c.Credits+c.CreditBatch-1)/c.CreditBatch + 5
}

// validate panics on configurations that would violate the flow
// control invariants.
func (c SVConfig) validate() {
	if c.ChunkSize <= 0 || c.Credits <= 0 || c.CreditBatch <= 0 {
		panic("core: invalid SocketVIA config")
	}
	if c.CreditBatch > c.Credits {
		panic("core: CreditBatch exceeds Credits")
	}
}
