// Package sim provides a deterministic discrete-event simulation kernel
// with lightweight cooperative processes, in the style of SimPy.
//
// The kernel owns a virtual clock and an event queue. Processes are Go
// goroutines that pass one baton among themselves: the holder runs
// process code or, once it parks, the event loop, and hands the baton
// over a channel to the next process the loop wakes, so exactly one
// goroutine runs at any instant. Together with a sequence-number
// tie-break in the event queue this makes every simulation fully
// deterministic.
//
// All higher layers of this repository (the physical network, the VIA
// emulation, the kernel TCP path, the SocketVIA sockets layer and the
// DataCutter filter framework) are built as sim processes.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds from the
// start of the simulation.
type Time int64

// Duration constants, mirroring package time but for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// PerByte converts a bandwidth in megabits per second into the virtual
// time taken per byte, rounded to the nearest nanosecond fraction kept
// by integer math on whole messages. Use TransferTime for sizes.
func PerByte(mbps float64) float64 {
	if mbps <= 0 {
		panic("sim: non-positive bandwidth")
	}
	return 8000.0 / mbps // ns per byte: 8 bits / (mbps * 1e6 / 1e9)
}

// TransferTime reports how long size bytes occupy a channel of the
// given bandwidth (Mbps).
func TransferTime(size int, mbps float64) Time {
	return Time(float64(size)*PerByte(mbps) + 0.5)
}

// BitsPerSec converts bytes moved over a duration into Mbps.
func BitsPerSec(bytes int64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}
