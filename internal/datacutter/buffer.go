// Package datacutter reproduces the DataCutter filter-stream runtime
// the paper uses as its application substrate (Beynon et al., Parallel
// Computing 27(11)).
//
// Applications are filter groups: filters with init/process/finalize
// interfaces connected by logical unidirectional streams that carry
// data buffers and end-of-work markers. A filter may have transparent
// copies placed on different nodes; the runtime maintains the illusion
// of a single logical stream by distributing buffers across copies
// with either a round-robin (RR) or a demand-driven (DD) policy. Under
// DD, a consumer acknowledges a buffer when it begins processing it
// and the producer routes each buffer to the copy with the fewest
// unacknowledged buffers, exactly as described in the paper.
//
// Streams run over the core sockets substrate, so an entire filter
// group can be switched between kernel TCP and SocketVIA without
// touching application code — the property the paper exploits.
//
// # Errors versus panics
//
// Conditions a running group can legitimately encounter — a consumer
// copy's connection breaking, a garbled header under injected
// corruption, every transparent copy of a filter failing
// (ErrNoLiveCopies), an expired StreamSpec.OpTimeout — surface as
// typed errors or trigger failover: acknowledged streams re-dispatch
// a failed copy's unacknowledged buffers to a survivor, and readers
// stop expecting end-of-work markers from lost producers. Panics are
// reserved for programmer errors caught at instantiation or misuse of
// the API: unknown nodes or filters in a spec, duplicate stream
// names, writing on a closed stream, buffer data/size mismatches.
package datacutter

import (
	"fmt"

	"hpsockets/internal/sim"
)

// Buffer is an array of data elements transferred from one filter to
// another. Data may be nil for size-only modelling; Size is always the
// accounted byte count.
type Buffer struct {
	UOW  int
	Size int
	Data []byte
	// Tag carries application metadata (block ids etc.) out of band;
	// it does not contribute to the wire size.
	Tag int64
	// Deadline is the virtual time by which this buffer's update must
	// reach the end of the pipeline (0 = none). It travels on the wire
	// (streams with StreamSpec.Deadlines use an extended header) so
	// every downstream stage can shed or degrade against it.
	Deadline sim.Time
	// Degraded marks a buffer sent at reduced resolution by the
	// DegradeQuality shed policy; Size is the reduced byte count.
	Degraded bool

	// src identifies the connection the buffer arrived on so that the
	// demand-driven ack can be routed back; it is nil on the producer
	// side.
	src *inbound

	// seq is the writer-assigned delivery sequence number on
	// exactly-once streams (assigned once, at first send, and preserved
	// across failover re-dispatch so the consumer-side ledger can
	// suppress the duplicate). 0 means unassigned / not armed.
	seq uint64
}

// wire message kinds.
const (
	wireData uint8 = iota + 1
	wireEOW
	wireAck
	// wireCredit returns one flow-control credit on the reverse path.
	wireCredit
	// wireResync is the first message on a restart-rejoin connection:
	// its uow field carries the producer's current unit of work, so the
	// restarted consumer fast-forwards past units whose end-of-work
	// markers it can no longer receive.
	wireResync
)

// headerSize is the on-stream framing header: kind, flags, uow, size,
// tag. Streams with deadlines armed extend it by the 8-byte deadline,
// and exactly-once streams by the 8-byte delivery sequence number
// (always the trailing extension); the header size is fixed per stream
// (both ends know it from the spec), so fault-free streams stay
// byte-identical to the original framing. Reverse-path messages (acks,
// credits) always use the base header.
const (
	headerSize    = 24
	extHeaderSize = headerSize + 8
)

// header flags.
const (
	flagReal     uint8 = 1 // payload carries real bytes
	flagDegraded uint8 = 2 // reduced-resolution partial update
)

// degradeShift is the resolution reduction of DegradeQuality: a
// degraded buffer ships Size >> degradeShift bytes (quarter volume),
// the "partial update" of the paper's latency-guarantee experiments.
const degradeShift = 2

// putHeader encodes the framing header.
func putHeader(dst []byte, kind, flags uint8, uow int, size int, tag int64) {
	if len(dst) < headerSize {
		panic("datacutter: short header buffer")
	}
	dst[0] = kind
	dst[1] = flags
	dst[2], dst[3] = 0, 0
	put32(dst[4:], uint32(uow))
	put64(dst[8:], uint64(size))
	put64(dst[16:], uint64(tag))
	if len(dst) >= extHeaderSize {
		put64(dst[headerSize:], 0)
	}
}

func parseHeader(src []byte) (kind, flags uint8, uow int, size int, tag int64) {
	if len(src) < headerSize {
		panic("datacutter: short header")
	}
	return src[0], src[1], int(get32(src[4:])), int(get64(src[8:])), int64(get64(src[16:]))
}

// putDeadline writes the extended-header deadline field.
func putDeadline(dst []byte, d sim.Time) {
	if len(dst) < extHeaderSize {
		panic("datacutter: short extended header buffer")
	}
	put64(dst[headerSize:], uint64(d))
}

// parseDeadline reads the extended-header deadline field.
func parseDeadline(src []byte) sim.Time {
	if len(src) < extHeaderSize {
		panic("datacutter: short extended header")
	}
	return sim.Time(get64(src[headerSize:]))
}

// putSeq writes the exactly-once sequence number, always the trailing
// 8 bytes of the (possibly deadline-extended) header.
func putSeq(dst []byte, seq uint64) {
	if len(dst) < extHeaderSize {
		panic("datacutter: short exactly-once header buffer")
	}
	put64(dst[len(dst)-8:], seq)
}

// parseSeq reads the trailing exactly-once sequence number.
func parseSeq(src []byte) uint64 {
	if len(src) < extHeaderSize {
		panic("datacutter: short exactly-once header")
	}
	return get64(src[len(src)-8:])
}

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

func get64(b []byte) uint64 {
	return uint64(get32(b)) | uint64(get32(b[4:]))<<32
}

func (b *Buffer) String() string {
	return fmt.Sprintf("buf{uow=%d size=%d tag=%d}", b.UOW, b.Size, b.Tag)
}
