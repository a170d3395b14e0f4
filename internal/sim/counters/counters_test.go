package counters

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomCounters fills every uint64 field with small random values.
func randomCounters(seed int64) Counters {
	rng := rand.New(rand.NewSource(seed))
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(rng.Intn(1000) + 1))
	}
	return c
}

// Property: Add then Sub round-trips every field.
func TestQuickAddSubRoundTrip(t *testing.T) {
	check := func(seedA, seedB int64) bool {
		a := randomCounters(seedA)
		b := randomCounters(seedB)
		sum := a
		sum.Add(&b)
		return sum.Sub(&b) == a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAddCoversEveryField catches fields added to the struct but
// forgotten in Add: adding a block to a zero block must reproduce it.
func TestAddCoversEveryField(t *testing.T) {
	a := randomCounters(42)
	var zero Counters
	zero.Add(&a)
	if zero != a {
		t.Fatal("Add does not cover every field of Counters")
	}
}

func TestDerivedMetrics(t *testing.T) {
	c := Counters{
		Cycles: 1000, CommitUser: 800, CommitOS: 200,
		MLPSum: 300, MLPCycles: 100,
		L1IMissUser: 50, L2IMissUser: 10,
		StallCyclesUser: 400, StallCyclesOS: 100,
		MemCycles: 600,
		L2Access:  100, L2Hit: 80,
		LLCAccess: 50, LLCHit: 25,
		SharedRWHitUser: 5, SharedRWHitOS: 10, LLCDataRefs: 100,
		Branches: 100, Mispredicts: 7,
		DRAMBusyCycles: 300, DRAMTotalCycles: 1000, DRAMChannels: 3,
	}
	if got := c.IPC(); got != 1.0 {
		t.Errorf("IPC = %f", got)
	}
	if got := c.UserIPC(); got != 0.8 {
		t.Errorf("UserIPC = %f", got)
	}
	if got := c.MLP(); got != 3.0 {
		t.Errorf("MLP = %f", got)
	}
	if got := c.StallFrac(); got != 0.5 {
		t.Errorf("StallFrac = %f", got)
	}
	if got := c.MemCycleFrac(); got != 0.6 {
		t.Errorf("MemCycleFrac = %f", got)
	}
	if got := c.L1IMPKIUser(); got != 50 {
		t.Errorf("L1IMPKIUser = %f", got)
	}
	if got := c.L2HitRatio(); got != 0.8 {
		t.Errorf("L2HitRatio = %f", got)
	}
	if got := c.LLCHitRatio(); got != 0.5 {
		t.Errorf("LLCHitRatio = %f", got)
	}
	if got := c.SharedRWFracUser(); got != 0.05 {
		t.Errorf("SharedRWFracUser = %f", got)
	}
	if got := c.SharedRWFracOS(); got != 0.10 {
		t.Errorf("SharedRWFracOS = %f", got)
	}
	if got := c.MispredictRate(); got != 0.07 {
		t.Errorf("MispredictRate = %f", got)
	}
	if got := c.DRAMUtilization(); got != 0.1 {
		t.Errorf("DRAMUtilization = %f", got)
	}
}

func TestZeroValueIsSafe(t *testing.T) {
	var c Counters
	// Every derived metric must handle zero denominators.
	_ = c.IPC()
	_ = c.UserIPC()
	_ = c.StallFrac()
	_ = c.MemCycleFrac()
	_ = c.L1IMPKIUser()
	_ = c.L2HitRatio()
	_ = c.LLCHitRatio()
	_ = c.SharedRWFracUser()
	_ = c.MispredictRate()
	_ = c.DRAMUtilization()
	if c.MLP() != 1 {
		t.Errorf("MLP of a miss-free block should be 1, got %f", c.MLP())
	}
}

func TestOffchipBytes(t *testing.T) {
	c := Counters{OffchipReadUser: 100, OffchipReadOS: 50, OffchipWriteback: 25}
	if c.OffchipBytes() != 175 {
		t.Errorf("OffchipBytes = %d", c.OffchipBytes())
	}
}

// TestConservation: a consistent block passes, and breaking any one law
// is reported.
func TestConservation(t *testing.T) {
	ok := Counters{
		Cycles: 100, CommitCyclesUser: 30, CommitCyclesOS: 10, StallCyclesUser: 50, StallCyclesOS: 10,
		MemCycles: 60, MLPCycles: 40, FetchStallCycles: 5,
		L1DAccess: 50, L1DMiss: 10, L1IMissUser: 4, L1IMissOS: 2, L2IMissUser: 3, L2IMissOS: 1,
		L2Access: 16, L2Hit: 8,
		LLCAccess: 9, LLCHit: 5, LLCMiss: 4, LLCHitUser: 3, LLCHitOS: 2, LLCMissUser: 3, LLCMissOS: 1,
		LLCDataRefs: 6, LLCInstrRefs: 3,
		RemoteSocketHit: 1, DRAMReadLocal: 3, DRAMReadRemote: 1,
		OffchipReadUser: 192, OffchipReadOS: 64,
	}
	if err := ok.Conservation(); err != nil {
		t.Fatalf("consistent block rejected: %v", err)
	}
	for name, broken := range map[string]func(*Counters){
		"stall lost":          func(c *Counters) { c.StallCyclesOS-- },
		"extra commit":        func(c *Counters) { c.CommitCyclesUser++ },
		"mem > cycles":        func(c *Counters) { c.MemCycles = 101 },
		"mlp > cycles":        func(c *Counters) { c.MLPCycles = 101 },
		"fetch > cycle":       func(c *Counters) { c.FetchStallCycles = 101 },
		"l2 access lost":      func(c *Counters) { c.L2Access-- },
		"l1i miss uncounted":  func(c *Counters) { c.L1IMissOS-- },
		"llc access unsplit":  func(c *Counters) { c.LLCAccess, c.LLCDataRefs = 10, 7 },
		"llc hit split":       func(c *Counters) { c.LLCHitOS++ },
		"llc miss split":      func(c *Counters) { c.LLCMissUser++ },
		"llc ref lost":        func(c *Counters) { c.LLCInstrRefs-- },
		"offchip bytes":       func(c *Counters) { c.OffchipReadOS += 64 },
		"dram read unpriced":  func(c *Counters) { c.DRAMReadRemote++ },
		"llc miss unserviced": func(c *Counters) { c.LLCMiss, c.LLCMissUser, c.LLCAccess, c.LLCDataRefs = 6, 5, 11, 8 },
		"l2 hit > access":     func(c *Counters) { c.L2Hit = 17 },
		"l1d miss > access":   func(c *Counters) { c.L1DAccess = 9 },
		"l2i miss > l1i miss": func(c *Counters) { c.L2IMissUser = 6 },
	} {
		c := ok
		broken(&c)
		if c.Conservation() == nil {
			t.Errorf("%s: violation not reported", name)
		}
	}
}
