package core

// This file implements the NUMA scale-up study: the paper's core
// argument is that scale-out workloads mismatch scale-up server
// hardware, so the study sweeps the workload across core counts and
// socket counts of the Table-1 machine and reports how chip throughput,
// memory-level parallelism, off-chip bandwidth, and cross-socket
// traffic scale. It is the measured counterpart of the mismatch
// argument: if the workloads scaled up well, doubling sockets would
// double throughput without inflating remote traffic.

// ScalePoint is one configuration of the scale-up sweep: Cores workload
// cores spread over Sockets sockets of the Table-1 machine.
// CoresPerSocket widens each socket past the Table-1 six (0 keeps the
// measured chip), letting the sweep reach the scaled grids the
// directory refactor unlocked.
type ScalePoint struct {
	Sockets        int
	Cores          int
	CoresPerSocket int
}

// ScaleUpPoints returns the default sweep: 1-6 cores on one socket,
// 2-12 cores split across two sockets, then the scaled four-socket
// 16-core-per-chip grids up to the full 64-core machine.
func ScaleUpPoints() []ScalePoint {
	return []ScalePoint{
		{1, 1, 0}, {1, 2, 0}, {1, 4, 0}, {1, 6, 0},
		{2, 2, 0}, {2, 4, 0}, {2, 6, 0}, {2, 8, 0}, {2, 10, 0}, {2, 12, 0},
		{4, 16, 16}, {4, 32, 16}, {4, 48, 16}, {4, 64, 16},
	}
}

// ScaleUpCell is one measured configuration of a workload's scaling
// curve.
type ScaleUpCell struct {
	Sockets int
	Cores   int
	// ChipIPC is committed instructions per wall-clock cycle summed over
	// all workload cores: the chip-throughput proxy.
	ChipIPC float64
	// Speedup normalizes ChipIPC to the row's first cell.
	Speedup float64
	// MLP is the average memory-level parallelism per core.
	MLP float64
	// BWUtil is off-chip bandwidth utilisation over all channels of all
	// sockets.
	BWUtil float64
	// RemoteHitPKI is remote-socket cache hits per kilo-instruction.
	RemoteHitPKI float64
	// RemoteDRAMFrac is the share of DRAM reads crossing QPI to the
	// other socket's memory controller.
	RemoteDRAMFrac float64
}

// ScaleUpRow is one workload's scaling curve across the sweep points.
type ScaleUpRow struct {
	Label string
	Cells []ScaleUpCell
}

// ScaleUpStudy measures every entry at every sweep point. The whole
// matrix is enumerated up front and submitted as one batch, so the
// worker pool sees all the parallelism at once.
func (r *Runner) ScaleUpStudy(entries []Entry, points []ScalePoint, o Options) ([]ScaleUpRow, error) {
	opts := make([]Options, len(points))
	for pi, p := range points {
		opts[pi] = o
		opts[pi].Cores = p.Cores
		opts[pi].Sockets = p.Sockets
		opts[pi].CoresPerSocket = p.CoresPerSocket
		opts[pi].SplitSockets = p.Sockets > 1
	}
	results, err := r.grid(entries, opts...)
	if err != nil {
		return nil, err
	}
	rows := make([]ScaleUpRow, 0, len(entries))
	for i, e := range entries {
		row := ScaleUpRow{Label: e.Label}
		for pi, p := range points {
			res := results[pi][i]
			chip := mean(res, func(m *Measurement) float64 {
				if m.WindowCycles == 0 {
					return 0
				}
				return float64(m.Commits()) / float64(m.WindowCycles)
			})
			cell := ScaleUpCell{
				Sockets: p.Sockets, Cores: p.Cores,
				ChipIPC: chip,
				MLP:     mean(res, func(m *Measurement) float64 { return m.MLP() }),
				BWUtil:  mean(res, func(m *Measurement) float64 { return m.DRAMUtilization() }),
				RemoteHitPKI: mean(res, func(m *Measurement) float64 {
					return 1000 * float64(m.RemoteSocketHit) / float64(m.Commits())
				}),
				RemoteDRAMFrac: mean(res, func(m *Measurement) float64 { return m.RemoteDRAMFrac() }),
			}
			if len(row.Cells) == 0 {
				cell.Speedup = 1
			} else if base := row.Cells[0].ChipIPC; base > 0 {
				cell.Speedup = chip / base
			}
			row.Cells = append(row.Cells, cell)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
