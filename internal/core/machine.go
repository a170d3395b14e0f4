// Package core is the heart of the reproduction: the CloudSuite
// benchmark suite, the measured-machine model, and the measurement
// methodology of "Clearing the Clouds" (Ferdman et al., ASPLOS 2012).
//
// It ties the substrates together: workload models produce instruction
// streams; the engine executes them on a Table-1 machine model; the
// experiment drivers reproduce every figure of the paper's evaluation —
// execution-time breakdowns (Figure 1), instruction-cache behaviour
// (Figure 2), IPC/MLP with and without SMT (Figure 3), LLC capacity
// sensitivity via cache-polluting threads (Figure 4), prefetcher
// ablations (Figure 5), read-write sharing across sockets (Figure 6),
// and off-chip bandwidth utilisation (Figure 7).
package core

import (
	"strconv"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/engine"
)

// Machine bundles the core and memory-system configuration of a
// simulated server.
type Machine struct {
	// Name identifies the configuration in reports.
	Name string
	Core engine.CoreConfig
	Mem  cache.SystemConfig
}

// XeonX5670 returns the measured machine of Table 1: a 32nm Xeon X5670
// with six 4-wide out-of-order cores (128-entry ROB, 48/32 load/store
// buffers, 36 reservation stations), 32KB split L1s (4-cycle), 256KB
// per-core L2 (6 additional cycles), a 12MB shared LLC (29-cycle), and
// three DDR3 channels delivering up to 32GB/s. All prefetchers
// (adjacent-line, HW prefetcher, DCU streamer) are enabled.
func XeonX5670() Machine {
	return Machine{Name: "Intel Xeon X5670", Core: engine.DefaultCoreConfig(), Mem: cache.DefaultSystemConfig()}
}

// MultiSocket returns the Table-1 machine scaled to n sockets. Each
// socket keeps its own LLC and its own three-channel memory controller
// (pages interleave across sockets), so aggregate cache capacity and
// bandwidth scale with the socket count, like the NUMA blades the
// paper measures on.
func MultiSocket(n int) Machine {
	m := XeonX5670()
	if n < 1 {
		n = 1
	}
	m.Mem.Sockets = n
	if n > 1 {
		m.Name = itoa(n) + "x Intel Xeon X5670"
	}
	return m
}

// TwoSocket returns the dual-socket PowerEdge M1000e blade
// configuration used for the read-write sharing measurement
// (Section 3.1: cores split across two physical processors so accesses
// to actively shared blocks appear as hits in the remote cache).
func TwoSocket() Machine { return MultiSocket(2) }

// ScaledMachine returns the Table-1 machine scaled to a sockets x
// coresPerSocket grid — the scale-up study's design space past the
// measured box. coresPerSocket <= 0 keeps the Table-1 six, making
// ScaledMachine(n, 0) identical to MultiSocket(n), so sweeps that mix
// both spellings share memoized measurements. Per-core cache capacity
// is held constant (each added core brings its own L1s and L2); socket
// resources (LLC, memory channels) are per-socket as in MultiSocket.
func ScaledMachine(sockets, coresPerSocket int) Machine {
	m := MultiSocket(sockets)
	if coresPerSocket > 0 && coresPerSocket != m.Mem.CoresPerSocket {
		m.Mem.CoresPerSocket = coresPerSocket
		m.Name = itoa(m.Mem.Sockets) + "x" + itoa(coresPerSocket) + "-core scaled Xeon X5670"
	}
	return m
}

// TableRow is one row of the Table-1 parameter listing.
type TableRow struct {
	Parameter string
	Value     string
}

// Table1 returns the architectural-parameter table for m, mirroring
// Table 1 of the paper.
func Table1(m Machine) []TableRow {
	return []TableRow{
		{"Processor", m.Name + ", 2.93GHz (simulated)"},
		{"CMP width", itoa(m.Mem.CoresPerSocket) + " OoO cores"},
		{"Core width", itoa(m.Core.Width) + "-wide issue and retire"},
		{"Reorder buffer", itoa(m.Core.ROB) + " entries"},
		{"Load/Store buffer", itoa(m.Core.LoadQ) + "/" + itoa(m.Core.StoreQ) + " entries"},
		{"Reservation stations", itoa(m.Core.RS) + " entries"},
		{"L1 cache", kb(m.Mem.L1I.SizeBytes) + ", split I/D, " + itoa(m.Mem.L1I.LatencyCycles) + "-cycle access latency"},
		{"L2 cache", kb(m.Mem.L2.SizeBytes) + " per core, " + itoa(m.Mem.L2.LatencyCycles-m.Mem.L1D.LatencyCycles) + "-cycle access latency"},
		{"LLC (L3 cache)", mb(m.Mem.LLC.SizeBytes) + ", " + itoa(m.Mem.LLC.LatencyCycles) + "-cycle access latency"},
		{"Memory", itoa(m.Mem.DRAM.Channels) + " DDR3 channels, up to 32GB/s"},
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func kb(bytes int) string { return itoa(bytes>>10) + "KB" }
func mb(bytes int) string { return itoa(bytes>>20) + "MB" }
