package sim

import "testing"

// churn is the shape of benchmark/'s sim.anchor_mevents_per_s
// workload: every fired event schedules a burst of 8 successors at
// mixed horizons until n have been scheduled, so the pending set grows
// to nearly n before the drain. This shape is what exposed a super-linear ladder regime the
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

// BenchmarkQueueDoorbell is the doorbell path: a producer posting
// into a queue with a parked consumer, one park of each per item, the
// shape of every CQ post, NIC work queue ring and softnet hand-off in
// the stacks. The func consumer is a GetFunc continuation, the shape
// of the adapters' egress stages: the same events, and only the
// producer parks.
func BenchmarkQueueDoorbell(b *testing.B) {
	const items = 10_000
	for _, form := range []struct {
		name    string
		consume func(*Kernel, *Queue[int])
	}{
		{"proc", func(k *Kernel, q *Queue[int]) {
			k.Go("consumer", func(p *Proc) {
				for {
					if _, ok := q.Get(p); !ok {
						return
					}
				}
			})
		}},
		{"func", func(k *Kernel, q *Queue[int]) {
			var got func(int, bool)
			got = func(_ int, ok bool) {
				if ok {
					q.GetFunc(got)
				}
			}
			k.After(0, func() { q.GetFunc(got) })
		}},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := NewKernel()
				q := NewQueue[int](k, 0)
				form.consume(k, q)
				k.Go("producer", func(p *Proc) {
					for j := 0; j < items; j++ {
						q.Put(p, j)
						p.Sleep(1) // re-park the consumer so every put rings the doorbell
					}
					q.Close()
				})
				k.RunAll()
			}
		})
	}
}

// BenchmarkSerializerUse is the collapsed FIFO-resource protocol
// under contention: four processes sharing one serializer, one sleep
// per use.
func BenchmarkSerializerUse(b *testing.B) {
	const uses = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		s := NewSerializer(k)
		for pn := 0; pn < 4; pn++ {
			k.Go("user", func(p *Proc) {
				for j := 0; j < uses/4; j++ {
					s.Use(p, 3, 2)
				}
			})
		}
		k.RunAll()
	}
}

// BenchmarkResourceUse is the counted semaphore's full protocol under
// contention, the shape of VIA's DMA engine: four users sharing one
// unit, each use an admission by the previous user's release and a
// hold. The func users are UseFunc continuations, as the adapter's
// engines are: the same events and no parks.
func BenchmarkResourceUse(b *testing.B) {
	const uses = 10_000
	for _, form := range []struct {
		name string
		user func(k *Kernel, r *Resource, uses int)
	}{
		{"proc", func(k *Kernel, r *Resource, uses int) {
			k.Go("user", func(p *Proc) {
				for j := 0; j < uses; j++ {
					r.Use(p, 1, 3)
				}
			})
		}},
		{"func", func(k *Kernel, r *Resource, uses int) {
			var use func()
			use = func() {
				if uses--; uses >= 0 {
					r.UseFunc(1, 3, use)
				}
			}
			k.After(0, use)
		}},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := NewKernel()
				r := NewResource(k, 1)
				for un := 0; un < 4; un++ {
					form.user(k, r, uses/4)
				}
				k.RunAll()
			}
		})
	}
}

// BenchmarkCondWait is the broadcast wake-up, the shape of ktcp's
// transmit engines on the send condition: four waiters on one Cond,
// each woken by every broadcast and waiting again at once. The func
// waiters are WaitFunc continuations, as the engines are: the same
// events, and only the broadcaster parks.
func BenchmarkCondWait(b *testing.B) {
	const wakes = 10_000
	for _, form := range []struct {
		name   string
		waiter func(k *Kernel, c *Cond, waits int)
	}{
		{"proc", func(k *Kernel, c *Cond, waits int) {
			k.Go("waiter", func(p *Proc) {
				for j := 0; j < waits; j++ {
					c.Wait(p)
				}
			})
		}},
		{"func", func(k *Kernel, c *Cond, waits int) {
			var wait func()
			wait = func() {
				if waits--; waits >= 0 {
					c.WaitFunc(wait)
				}
			}
			k.After(0, wait)
		}},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := NewKernel()
				c := NewCond(k)
				for wn := 0; wn < 4; wn++ {
					form.waiter(k, c, wakes/4)
				}
				k.Go("broadcaster", func(p *Proc) {
					for j := 0; j < wakes/4; j++ {
						p.Sleep(1)
						c.Broadcast()
					}
				})
				k.RunAll()
			}
		})
	}
}
