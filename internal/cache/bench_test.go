package cache

import (
	"fmt"
	"testing"
)

// BenchmarkAddRemoveCycle measures the link-cache mutation mix the
// engine performs per probe: membership check, add (with eviction
// pressure), touch, and remove. Steady state should not allocate.
//
// It runs both index representations at every capacity, on either side
// of linearIndexMax, so the boundary's comment can quote a measured
// crossover: NewLinkCache picks index=tags up to linearIndexMax and
// index=slots above.
func BenchmarkAddRemoveCycle(b *testing.B) {
	for _, capacity := range []int{32, 100, 128, 160, 200, 256, 512, 1000, 2000, 5000} {
		for _, index := range []string{"tags", "slots"} {
			b.Run(fmt.Sprintf("cap=%d/index=%s", capacity, index), func(b *testing.B) {
				c := newIndexed(capacity, index == "slots")
				for i := 0; i < capacity; i++ {
					c.Add(Entry{Addr: PeerID(i)})
				}
				floor := capacity * 3 / 4
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					addr := PeerID(i % 4096)
					if !c.Has(addr) && !c.Full() {
						c.Add(Entry{Addr: addr})
					}
					c.Touch(addr, float64(i))
					if i%3 == 0 {
						c.Remove(PeerID((i * 7) % 4096))
					}
					if c.Len() < floor {
						c.Add(Entry{Addr: PeerID(i%4096 + 5000)})
					}
				}
			})
		}
	}
}

// BenchmarkReplaceAt measures the eviction write path.
func BenchmarkReplaceAt(b *testing.B) {
	c := NewLinkCache(128)
	for i := 0; i < 128; i++ {
		c.Add(Entry{Addr: PeerID(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ReplaceAt(i%128, Entry{Addr: PeerID(10000 + i)})
	}
}
