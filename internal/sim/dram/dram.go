// Package dram models the off-chip memory system: independent DDR3
// channels with a fixed access latency plus a bandwidth-occupancy model.
// Each 64-byte transfer occupies its channel for a fixed number of core
// cycles; requests to a busy channel queue behind it. Channel busy time
// is the basis of Figure 7 (off-chip bandwidth utilisation).
package dram

import "cloudsuite/internal/sim/checkpoint"

// Config describes the memory system.
type Config struct {
	// Channels is the number of independent DDR3 channels.
	Channels int
	// AccessCycles is the idle-channel latency of a line fetch in core
	// cycles (row activation + CAS + transfer start).
	AccessCycles int
	// TransferCycles is the channel occupancy of one 64-byte transfer in
	// core cycles. At 2.93GHz and ~10.7GB/s per DDR3-1333 channel, a
	// 64-byte line occupies the channel for ~17.5 core cycles.
	TransferCycles int
}

// DefaultConfig matches the measured machine: three DDR3 channels
// delivering up to 32GB/s total (Table 1).
func DefaultConfig() Config {
	return Config{Channels: 3, AccessCycles: 190, TransferCycles: 18}
}

// Controller is the memory controller. It is used single-threaded by the
// simulator's cycle loop.
type Controller struct {
	cfg    Config  //simlint:ok checkpointcov construction-time configuration; LoadState geometry-checks channel count instead of restoring it
	freeAt []int64 // per-channel time the channel becomes free
	busy   []int64 // per-channel cumulative busy cycles
}

// New returns an idle controller.
func New(cfg Config) *Controller {
	if cfg.Channels <= 0 {
		cfg = DefaultConfig()
	}
	return &Controller{
		cfg:    cfg,
		freeAt: make([]int64, cfg.Channels),
		busy:   make([]int64, cfg.Channels),
	}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// SaveState serializes the controller's queues (per-channel free
// times) and busy-cycle accounting into a checkpoint.
func (c *Controller) SaveState(w *checkpoint.Writer) {
	w.Tag("dram")
	w.I64s(c.freeAt)
	w.I64s(c.busy)
}

// LoadState restores state saved by SaveState into a controller of
// identical channel count; a mismatch is reported through the reader.
func (c *Controller) LoadState(r *checkpoint.Reader) {
	r.Expect("dram")
	r.I64s(c.freeAt)
	r.I64s(c.busy)
}

func (c *Controller) channel(line uint64) int {
	// Interleave consecutive lines across channels, like BIOS channel
	// interleaving on the measured machine.
	return int(line % uint64(c.cfg.Channels))
}

// Read schedules a line fetch at time now and returns the completion
// time. line is the cache-line address (addr >> 6).
func (c *Controller) Read(line uint64, now int64) int64 {
	return c.transfer(line, now, true)
}

// Write schedules a line writeback at time now and returns the time the
// channel accepted it. Writebacks are posted: callers need not wait.
func (c *Controller) Write(line uint64, now int64) int64 {
	return c.transfer(line, now, false)
}

func (c *Controller) transfer(line uint64, now int64, read bool) int64 {
	ch := c.channel(line)
	start := now
	if c.freeAt[ch] > start {
		start = c.freeAt[ch]
	}
	end := start + int64(c.cfg.TransferCycles)
	c.freeAt[ch] = end
	c.busy[ch] += int64(c.cfg.TransferCycles)
	if read {
		return start + int64(c.cfg.AccessCycles)
	}
	return start
}

// BusyCycles returns cumulative busy cycles summed over channels.
func (c *Controller) BusyCycles() uint64 {
	var t uint64
	for _, b := range c.busy {
		t += uint64(b)
	}
	return t
}

// ResetQueues discards channel backlog, making every channel free at
// the given cycle. The simulator calls this at the start of every
// timed window, so backlog left by the warming before it cannot queue
// into the measurement. In contiguous mode that warming is the
// functional warm-up, whose pseudo-clock timing is meaningless. In
// sampled mode each interval's functional warming is followed by
// detailed warming, which runs under full timing on the same
// controllers, so its backlog is discarded too.
func (c *Controller) ResetQueues(cycle int64) {
	for i := range c.freeAt {
		if c.freeAt[i] > cycle {
			c.freeAt[i] = cycle
		}
	}
}
