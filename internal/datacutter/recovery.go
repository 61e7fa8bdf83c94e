package datacutter

import (
	"hpsockets/internal/hpsmon"
	"hpsockets/internal/sim"
)

// Crash-restart recovery (DESIGN.md §16).
//
// A filter copy whose FilterSpec.CheckpointEvery is armed runs as a
// sequence of incarnations. Each incarnation drives units of work from
// the copy's checkpoint watermark; a node crash unwinds it (the
// crashUnwind sentinel, thrown by Context.Compute and recovered by the
// group driver) instead of parking its proc forever. When the node
// restarts (fault.NodeRestart), the copy's restart hook bumps the
// incarnation epoch, rewinds every input stream to the checkpoint,
// asks the producers to rejoin through the redial path, and spawns the
// next incarnation. The exactly-once ledger makes the overlap of
// failover re-dispatch and rejoin redelivery safe: a buffer delivered
// by any incarnation of any copy is never delivered again.

// crashUnwind is the sentinel a recovery-armed Context panics with
// when its node has crashed (or a restart superseded its incarnation)
// mid-computation. The group driver recovers it; anything else
// re-panics.
type crashUnwind struct {
	name string
	copy int
}

// checkpoint is the durable progress record of one recovery-armed
// filter copy: the next unit of work to process and the virtual time
// the watermark was taken. Persistence is modelled by the record
// living in the runtime, outside the incarnation — the simulated
// equivalent of a checkpoint file surviving the crash.
type checkpoint struct {
	at   sim.Time
	next int
}

// rejoinGrace bounds how long a restarted incarnation waits for its
// producers to rejoin before completing vacuously. It must comfortably
// exceed the worst-case redial backoff (8 attempts capped at 50ms) so
// a reachable producer always makes it back, and stay well under the
// chaos watchdog horizon so an unreachable one surfaces as reduced
// delivery, not a hang.
const rejoinGrace = 200 * sim.Millisecond

// resetForRejoin re-homes the reader for a new incarnation of a
// restarted copy: a fresh incarnation (the old one's inbox is closed,
// so stale connections' puts are swallowed and a parked zombie getter
// wakes to find its incarnation superseded), volatile state dropped —
// a real restart loses its memory; in-flight work is re-accounted by
// the producers' failover path — and the unit-of-work cursor rewound
// to the checkpoint. expected producers are awaited for rejoin markers
// under the grace deadline; note fires at the incarnation's first
// delivery (the copy's recovery instant). Runs in kernel-callback
// context: nothing here blocks.
func (r *StreamReader) resetForRejoin(k *sim.Kernel, from, expected int, note func()) {
	old := r.incarnation
	r.incarnation = newIncarnation(k, r.depth, 0, from)
	old.inbox.Close()
	old.graceTimer.Stop()
	if n := len(old.stash); n > 0 {
		hpsmon.Count(k, "datacutter", "stash.dropped", int64(n))
	}
	r.awaitRejoin = expected
	r.recoverNote = note
	if expected > 0 {
		r.armGrace(k)
	}
}

// armGrace schedules the rejoin grace deadline of the current
// incarnation; noteRejoin stops it when the last awaited producer is
// back, resetForRejoin and finishCopy when the incarnation ends. When
// it fires — rejoins still outstanding — with no live connection, it
// closes the inbox: the parked reader wakes and the incarnation
// completes vacuously — delivery shrinks, liveness holds, and the
// producer side's op timeout reclaims anything a late rejoin would
// have parked. With live connections still feeding the reader it
// re-arms: the stragglers' lost markers will eventually bring nconns
// to zero, and the next firing decides.
func (r *StreamReader) armGrace(k *sim.Kernel) {
	inc := r.incarnation
	inc.graceTimer = k.At(k.Now()+rejoinGrace, func() {
		if inc.nconns > 0 {
			r.armGrace(k)
			return
		}
		hpsmon.Count(k, "datacutter", "rejoin.timeouts", 1)
		inc.awaitRejoin = 0
		inc.inbox.Close()
	})
}
