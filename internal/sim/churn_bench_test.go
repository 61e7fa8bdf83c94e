package sim

import "testing"

// churn mirrors cmd/bench's sanity-anchor workload: every fired event
// schedules a burst of 8 successors at mixed horizons until n have
// been scheduled, so the pending set grows to nearly n before the
// drain. This shape is what exposed a super-linear ladder regime the
// figure workloads (small pending sets) never reach.
func churn(n int) {
	k := NewKernel()
	var rng uint64 = 0x9e3779b97f4a7c15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	scheduled := 0
	var reschedule func()
	reschedule = func() {
		for burst := 0; burst < 8 && scheduled < n; burst++ {
			var d Time
			switch next() % 4 {
			case 0:
				d = 0
			case 1:
				d = Time(next() % 1000)
			case 2:
				d = Time(next() % 1_000_000)
			default:
				d = Time(next() % 1_000_000_000)
			}
			scheduled++
			t := k.After(d, reschedule)
			if next()%8 == 0 {
				t.Stop()
			}
		}
	}
	reschedule()
	k.RunAll()
}

// The size ladder checks that per-event cost stays flat as the
// pending set grows; the bottom-overflow conversion bug showed up
// here as super-linear growth (3.1µs/event at 100k, 5.9µs at 200k)
// while small sizes looked healthy.
func BenchmarkChurn25k(b *testing.B)  { benchChurn(b, 25_000) }
func BenchmarkChurn50k(b *testing.B)  { benchChurn(b, 50_000) }
func BenchmarkChurn100k(b *testing.B) { benchChurn(b, 100_000) }
func BenchmarkChurn200k(b *testing.B) { benchChurn(b, 200_000) }

func benchChurn(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		churn(n)
	}
}

// BenchmarkParkSelf is the zero-switch park: one process sleeping in
// a loop, so every park finds its own wake-up next and returns on the
// goroutine it parked on. One op is one park.
func BenchmarkParkSelf(b *testing.B) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// BenchmarkParkHandoff is the one-switch park: two processes bouncing
// a token through a pair of queues, so every park ends by waking the
// other process. One op is one round trip, two parks.
func BenchmarkParkHandoff(b *testing.B) {
	k := NewKernel()
	ping, pong := NewQueue[int](k, 0), NewQueue[int](k, 0)
	k.Go("echo", func(p *Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(p, v)
		}
	})
	k.Go("caller", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
		ping.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}
