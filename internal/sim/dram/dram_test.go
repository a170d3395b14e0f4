package dram

import (
	"testing"
	"testing/quick"
)

func TestIdleReadLatency(t *testing.T) {
	c := New(Config{Channels: 2, AccessCycles: 100, TransferCycles: 10})
	done := c.Read(0, 1000)
	if done != 1100 {
		t.Fatalf("idle read completes at %d, want 1100", done)
	}
}

func TestChannelQueueing(t *testing.T) {
	c := New(Config{Channels: 1, AccessCycles: 100, TransferCycles: 10})
	d1 := c.Read(0, 0)
	d2 := c.Read(1, 0) // same channel (1 channel): queues behind
	if d2 <= d1 {
		t.Fatalf("second read must queue: d1=%d d2=%d", d1, d2)
	}
	if d2 != d1+10 {
		t.Fatalf("queueing delay = %d, want transfer time 10", d2-d1)
	}
}

func TestChannelInterleave(t *testing.T) {
	c := New(Config{Channels: 2, AccessCycles: 100, TransferCycles: 10})
	d1 := c.Read(0, 0) // channel 0
	d2 := c.Read(1, 0) // channel 1: independent
	if d1 != d2 {
		t.Fatalf("parallel channels should finish together: %d vs %d", d1, d2)
	}
}

func TestWritesArePosted(t *testing.T) {
	c := New(Config{Channels: 1, AccessCycles: 100, TransferCycles: 10})
	start := c.Write(0, 50)
	if start != 50 {
		t.Fatalf("posted write accepted at %d, want 50", start)
	}
	if b := c.BusyCycles(); b != 10 {
		t.Fatalf("posted write occupied the channel %d cycles, want one transfer (10)", b)
	}
	// The channel is busy until 60: a read issued at 50 queues behind
	// the write.
	if done := c.Read(1, 50); done != 160 {
		t.Fatalf("read behind the posted write completes at %d, want 160", done)
	}
}

// Property: completion time never precedes request time + access
// latency, and busy cycles grow monotonically.
func TestQuickReadLatencyBound(t *testing.T) {
	check := func(lines []uint64) bool {
		c := New(Config{Channels: 3, AccessCycles: 100, TransferCycles: 10})
		now := int64(0)
		prevBusy := uint64(0)
		for _, l := range lines {
			done := c.Read(l, now)
			if done < now+100 {
				return false
			}
			if c.BusyCycles() < prevBusy {
				return false
			}
			prevBusy = c.BusyCycles()
			now += 5
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetQueuesClearsBacklog(t *testing.T) {
	c := New(Config{Channels: 1, AccessCycles: 100, TransferCycles: 10})
	// Build a backlog far into the future.
	for i := uint64(0); i < 100; i++ {
		c.Read(i, 0)
	}
	c.ResetQueues(50)
	done := c.Read(0, 50)
	if done != 150 {
		t.Fatalf("read after reset completes at %d, want idle latency 150", done)
	}
}
