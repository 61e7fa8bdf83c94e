package sim

import (
	"math/rand"
	"testing"
)

// The ladder queue replaced the kernel's binary heap; these tests keep
// the heap around as an oracle and prove the two structures agree on
// the only thing that matters: the exact (at, seq) pop order of live
// events, under randomized push/pop/cancel/compact workloads.

// oracleEv is the oracle's view of one scheduled event.
type oracleEv struct {
	at  Time
	seq uint64
}

func oracleLess(a, b oracleEv) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// oracleHeap is a verbatim port of the kernel's former binary heap
// (heapPush/heapPop/siftDown ordered by eventLess).
type oracleHeap struct {
	h []oracleEv
}

func (o *oracleHeap) push(e oracleEv) {
	o.h = append(o.h, e)
	h := o.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !oracleLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (o *oracleHeap) pop() oracleEv {
	h := o.h
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	o.h = h[:n]
	if n > 0 {
		o.siftDown(0)
	}
	return e
}

func (o *oracleHeap) siftDown(i int) {
	h := o.h
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && oracleLess(h[right], h[least]) {
			least = right
		}
		if !oracleLess(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// ladderWorkload drives one kernel's queue directly (push via At,
// cancel via Timer.Stop, pop via peekNext/popNext exactly as Run does)
// against the heap oracle, with the given time-delta generator.
func ladderWorkload(t *testing.T, seed int64, ops int, delta func(r *rand.Rand) Time) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	k := NewKernel()
	o := &oracleHeap{}
	canceled := make(map[uint64]bool)
	type rec struct {
		timer Timer
		seq   uint64
	}
	var live []rec
	var nextSeq uint64
	oracleCanceled := 0

	push := func(at Time) {
		timer := k.At(at, func() {})
		o.push(oracleEv{at: at, seq: nextSeq})
		live = append(live, rec{timer: timer, seq: nextSeq})
		nextSeq++
	}

	// popLive removes events from the kernel queue until a live one
	// comes out, mirroring Run's cancellation-skipping loop, and
	// reports it. ok is false when the queue drains.
	popLive := func() (Time, uint64, bool) {
		for {
			e := k.peekNext()
			if e == nil {
				return 0, 0, false
			}
			// A peek must not disturb the queue: peeking again yields
			// the same event.
			if again := k.peekNext(); again != e {
				t.Fatalf("peekNext not idempotent: %p then %p", e, again)
			}
			at, seq := e.at, e.seq
			k.popNext(e)
			if e.canceled {
				k.ncanceled--
				k.releaseEvent(e)
				continue
			}
			k.now = at
			k.releaseEvent(e)
			return at, seq, true
		}
	}
	oraclePopLive := func() (Time, uint64, bool) {
		for len(o.h) > 0 {
			e := o.pop()
			if canceled[e.seq] {
				oracleCanceled--
				continue
			}
			return e.at, e.seq, true
		}
		return 0, 0, false
	}

	for i := 0; i < ops; i++ {
		switch c := r.Intn(10); {
		case c < 4: // push a burst, sometimes at one shared instant
			n := 1 + r.Intn(8)
			at := k.now + delta(r)
			for j := 0; j < n; j++ {
				push(at)
				if r.Intn(2) == 0 {
					at = k.now + delta(r)
				}
			}
		case c < 7: // pop one live event from both structures
			at, seq, ok := popLive()
			oat, oseq, ook := oraclePopLive()
			if ok != ook {
				t.Fatalf("op %d: kernel drained=%v oracle drained=%v", i, !ok, !ook)
			}
			if ok && (at != oat || seq != oseq) {
				t.Fatalf("op %d: kernel popped (at=%d seq=%d), oracle (at=%d seq=%d)",
					i, at, seq, oat, oseq)
			}
		case c < 9: // cancel a random armed timer (may trigger compaction)
			if len(live) == 0 {
				continue
			}
			j := r.Intn(len(live))
			if live[j].timer.Stop() {
				canceled[live[j].seq] = true
				oracleCanceled++
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // cancel storm: force the compaction threshold
			for _, rc := range live {
				if rc.timer.Stop() {
					canceled[rc.seq] = true
					oracleCanceled++
				}
			}
			live = live[:0]
		}
		if kl, ol := k.Live(), len(o.h)-oracleCanceled; kl != ol {
			t.Fatalf("op %d: kernel Live()=%d, oracle live=%d", i, kl, ol)
		}
	}

	// Drain both completely; every remaining live event must match.
	for {
		at, seq, ok := popLive()
		oat, oseq, ook := oraclePopLive()
		if ok != ook {
			t.Fatalf("drain: kernel drained=%v oracle drained=%v", !ok, !ook)
		}
		if !ok {
			break
		}
		if at != oat || seq != oseq {
			t.Fatalf("drain: kernel popped (at=%d seq=%d), oracle (at=%d seq=%d)",
				at, seq, oat, oseq)
		}
	}
	if k.Pending() != 0 || k.Live() != 0 {
		t.Fatalf("after drain: Pending=%d Live=%d, want 0/0", k.Pending(), k.Live())
	}
}

// TestLadderMatchesHeapOracle sweeps time-delta regimes that exercise
// every ladder component: delta 0 keeps events in the same-instant
// ring, tiny deltas live in the sorted bottom, mid-range deltas build
// rungs, and huge spreads overflow into the unsorted top and force
// multi-level rung spawning on transfer.
func TestLadderMatchesHeapOracle(t *testing.T) {
	regimes := []struct {
		name  string
		delta func(r *rand.Rand) Time
	}{
		{"same-instant", func(r *rand.Rand) Time { return 0 }},
		{"near", func(r *rand.Rand) Time { return Time(r.Intn(64)) }},
		{"mixed", func(r *rand.Rand) Time {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return Time(r.Intn(1000))
			case 2:
				return Time(r.Intn(1_000_000))
			default:
				return Time(r.Intn(1_000_000_000))
			}
		}},
		{"heavy-tail", func(r *rand.Rand) Time {
			if r.Intn(10) == 0 {
				return Time(r.Intn(1_000_000_000_000))
			}
			return Time(r.Intn(100))
		}},
		{"bursty-far", func(r *rand.Rand) Time {
			return Time(1_000_000 + r.Intn(16)) // dense far cluster: deep rung splits
		}},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				ladderWorkload(t, seed, 4000, reg.delta)
			}
		})
	}
}

// TestLadderGrownPendingOrder grows the pending set to tens of
// thousands before draining, the regime of the event-churn anchor:
// push-heavy bursts at mixed horizons with occasional pops force the
// small-top direct transfer, the bottom-overflow conversion into a
// rung (ladderBottomMax), and routing through rung limits where
// rounded bucket widths overshoot the covered span — then the full
// drain must still match the heap oracle event for event.
func TestLadderGrownPendingOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		o := &oracleHeap{}
		canceled := make(map[uint64]bool)
		var nextSeq uint64
		oracleCanceled := 0

		popLive := func() (Time, uint64, bool) {
			for {
				e := k.peekNext()
				if e == nil {
					return 0, 0, false
				}
				at, seq := e.at, e.seq
				k.popNext(e)
				if e.canceled {
					k.ncanceled--
					k.releaseEvent(e)
					continue
				}
				k.now = at
				k.releaseEvent(e)
				return at, seq, true
			}
		}
		oraclePopLive := func() (Time, uint64, bool) {
			for len(o.h) > 0 {
				e := o.pop()
				if canceled[e.seq] {
					oracleCanceled--
					continue
				}
				return e.at, e.seq, true
			}
			return 0, 0, false
		}

		for i := 0; i < 30_000; i++ {
			var d Time
			switch r.Intn(4) {
			case 0:
				d = 0
			case 1:
				d = Time(r.Intn(1000))
			case 2:
				d = Time(r.Intn(1_000_000))
			default:
				d = Time(r.Intn(1_000_000_000))
			}
			at := k.now + d
			tm := k.At(at, func() {})
			o.push(oracleEv{at: at, seq: nextSeq})
			if r.Intn(8) == 0 {
				if tm.Stop() {
					canceled[nextSeq] = true
					oracleCanceled++
				}
			}
			nextSeq++
			// A sparse pop mix keeps the clock advancing through rung
			// consumption while the pending set keeps growing.
			if r.Intn(4) == 0 {
				at, seq, ok := popLive()
				oat, oseq, ook := oraclePopLive()
				if ok != ook || (ok && (at != oat || seq != oseq)) {
					t.Fatalf("seed %d push %d: kernel (at=%d seq=%d ok=%v), oracle (at=%d seq=%d ok=%v)",
						seed, i, at, seq, ok, oat, oseq, ook)
				}
			}
		}
		for {
			at, seq, ok := popLive()
			oat, oseq, ook := oraclePopLive()
			if ok != ook {
				t.Fatalf("seed %d drain: kernel drained=%v oracle drained=%v", seed, !ok, !ook)
			}
			if !ok {
				break
			}
			if at != oat || seq != oseq {
				t.Fatalf("seed %d drain: kernel (at=%d seq=%d), oracle (at=%d seq=%d)", seed, at, seq, oat, oseq)
			}
		}
		if k.Pending() != 0 || k.Live() != 0 {
			t.Fatalf("seed %d after drain: Pending=%d Live=%d, want 0/0", seed, k.Pending(), k.Live())
		}
	}
}

// TestLadderRunOrder checks the integrated path: a kernel Run with
// same-instant fan-out, cross-scheduling callbacks, and cancellations
// fires callbacks in exactly the (at, seq) order the heap oracle
// predicts.
func TestLadderRunOrder(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		o := &oracleHeap{}
		canceled := make(map[uint64]bool)
		var fired []uint64
		var nextSeq uint64
		var timers []struct {
			t   Timer
			seq uint64
		}

		var push func(depth int, at Time)
		push = func(depth int, at Time) {
			seq := nextSeq
			nextSeq++
			o.push(oracleEv{at: at, seq: seq})
			tm := k.At(at, func() {
				fired = append(fired, seq)
				if depth < 3 {
					n := r.Intn(3)
					for j := 0; j < n; j++ {
						d := Time(r.Intn(50))
						if r.Intn(3) == 0 {
							d = 0 // same-instant chain through the ring
						}
						push(depth+1, k.Now()+d)
					}
				}
			})
			timers = append(timers, struct {
				t   Timer
				seq uint64
			}{tm, seq})
		}
		for i := 0; i < 200; i++ {
			push(0, Time(r.Intn(1000)))
		}
		for i := 0; i < 40 && i < len(timers); i++ {
			j := r.Intn(len(timers))
			if timers[j].t.Stop() {
				canceled[timers[j].seq] = true
			}
		}
		k.RunAll()

		// The oracle can only be drained after the run, when the
		// dynamically pushed events are all known; the callbacks above
		// mirrored each push into it.
		var want []uint64
		for len(o.h) > 0 {
			e := o.pop()
			if !canceled[e.seq] {
				want = append(want, e.seq)
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d callbacks, oracle predicts %d", seed, len(fired), len(want))
		}
		for i := range fired {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: firing %d was seq %d, oracle predicts %d", seed, i, fired[i], want[i])
			}
		}
	}
}
