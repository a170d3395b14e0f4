package core

import (
	"fmt"
	"sort"
)

// This file implements the paper's evaluation: one driver per figure.
// Each driver enumerates its full measurement matrix up front, submits
// it to a Runner (worker pool + memoization cache, see runner.go), and
// folds the results into plain row structs that the report package
// renders and the benchmark harness prints. Output ordering is
// deterministic and independent of the worker count. DESIGN.md
// section 3 maps each driver to its figure.

// BreakdownRow is one bar of Figure 1: the commit-time execution
// breakdown plus the overlapped memory-cycles bar.
type BreakdownRow struct {
	Label string
	// Fractions of total cycles.
	CommittingUser float64
	CommittingOS   float64
	StalledUser    float64
	StalledOS      float64
	// Memory is plotted side-by-side (it overlaps commit cycles).
	Memory float64
	// MemoryCI is the 95% confidence interval of the Memory bar (zero
	// width when sampling is off).
	MemoryCI Estimate
}

// Figure1 measures the execution-time breakdown of the given entries.
func (r *Runner) Figure1(entries []Entry, o Options) ([]BreakdownRow, error) {
	results, err := r.grid(entries, o)
	if err != nil {
		return nil, err
	}
	rows := make([]BreakdownRow, 0, len(entries))
	for _, res := range results[0] {
		rows = append(rows, BreakdownRow{
			Label: res.Label,
			CommittingUser: mean(res, func(m *Measurement) float64 {
				return float64(m.CommitCyclesUser) / float64(m.Cycles)
			}),
			CommittingOS: mean(res, func(m *Measurement) float64 {
				return float64(m.CommitCyclesOS) / float64(m.Cycles)
			}),
			StalledUser: mean(res, func(m *Measurement) float64 {
				return float64(m.StallCyclesUser) / float64(m.Cycles)
			}),
			StalledOS: mean(res, func(m *Measurement) float64 {
				return float64(m.StallCyclesOS) / float64(m.Cycles)
			}),
			Memory:   mean(res, func(m *Measurement) float64 { return m.MemCycleFrac() }),
			MemoryCI: res.CI(func(m *Measurement) float64 { return m.MemCycleFrac() }),
		})
	}
	return rows, nil
}

// InstrMissRow is one bar group of Figure 2: L1-I and L2 instruction
// misses per kilo-instruction, split into application and OS.
type InstrMissRow struct {
	Label  string
	L1IApp float64
	L1IOS  float64
	L2IApp float64
	L2IOS  float64
	ShowOS bool
}

// Figure2 measures instruction-cache miss rates.
func (r *Runner) Figure2(entries []Entry, o Options) ([]InstrMissRow, error) {
	results, err := r.grid(entries, o)
	if err != nil {
		return nil, err
	}
	rows := make([]InstrMissRow, 0, len(entries))
	for i, e := range entries {
		res := results[0][i]
		rows = append(rows, InstrMissRow{
			Label:  e.Label,
			L1IApp: mean(res, func(m *Measurement) float64 { return m.L1IMPKIUser() }),
			L1IOS:  mean(res, func(m *Measurement) float64 { return m.L1IMPKIOS() }),
			L2IApp: mean(res, func(m *Measurement) float64 { return m.L2IMPKIUser() }),
			L2IOS:  mean(res, func(m *Measurement) float64 { return m.L2IMPKIOS() }),
			ShowOS: e.ShowOS,
		})
	}
	return rows, nil
}

// IPCMLPRow is one bar group of Figure 3: IPC and MLP with and without
// SMT, with min/max range over group members.
type IPCMLPRow struct {
	Label                  string
	IPCBase, IPCSMT        float64
	IPCLo, IPCHi           float64
	MLPBase, MLPSMT        float64
	MLPLo, MLPHi           float64
	SMTSpeedup             float64
	MLPGainFromSMT         float64
	MembersCounted         int
	BaseCyclesPerInstr4Wid float64
	// IPCCI and MLPCI are the baseline configuration's 95% confidence
	// intervals (zero width when sampling is off). The Lo/Hi pairs above
	// are member min/max spreads, not statistical intervals.
	IPCCI, MLPCI Estimate
}

// Figure3 measures IPC and MLP for baseline and SMT configurations.
// Both configurations of every entry go into a single submission, so
// the worker pool sees the whole matrix at once.
func (r *Runner) Figure3(entries []Entry, o Options) ([]IPCMLPRow, error) {
	oSMT := o
	oSMT.SMT = true
	results, err := r.grid(entries, o, oSMT)
	if err != nil {
		return nil, err
	}
	rows := make([]IPCMLPRow, 0, len(entries))
	for i, e := range entries {
		base, smt := results[0][i], results[1][i]
		ipc, ipcLo, ipcHi := base.MeanMinMax(func(m *Measurement) float64 { return m.IPC() })
		mlp, mlpLo, mlpHi := base.MeanMinMax(func(m *Measurement) float64 { return m.MLP() })
		ipcS := mean(smt, func(m *Measurement) float64 { return m.IPC() })
		mlpS := mean(smt, func(m *Measurement) float64 { return m.MLP() })
		row := IPCMLPRow{
			Label:   e.Label,
			IPCBase: ipc, IPCSMT: ipcS, IPCLo: ipcLo, IPCHi: ipcHi,
			MLPBase: mlp, MLPSMT: mlpS, MLPLo: mlpLo, MLPHi: mlpHi,
			MembersCounted: len(e.Members),
			IPCCI:          base.CI(func(m *Measurement) float64 { return m.IPC() }),
			MLPCI:          base.CI(func(m *Measurement) float64 { return m.MLP() }),
		}
		if ipc > 0 {
			row.SMTSpeedup = ipcS / ipc
		}
		if mlp > 0 {
			row.MLPGainFromSMT = mlpS / mlp
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LLCPoint is one point of Figure 4: user-IPC at an effective LLC
// capacity, normalized to the full-capacity baseline.
type LLCPoint struct {
	CacheMB    int
	Normalized float64
}

// LLCSeries is one curve of Figure 4.
type LLCSeries struct {
	Label  string
	Points []LLCPoint
}

// Figure4 sweeps effective LLC capacity using cache-polluting threads
// (Section 3.1's methodology) and reports user-IPC normalized to the
// unpolluted baseline for each entry group. Series are returned in
// sorted label order, so output does not depend on map iteration.
func (r *Runner) Figure4(groups map[string][]Entry, capacitiesMB []int, o Options) ([]LLCSeries, error) {
	llcMB := XeonX5670().Mem.LLC.SizeBytes >> 20
	labels := make([]string, 0, len(groups))
	for label := range groups {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	// One grid over every group's entries: the unpolluted baseline
	// followed by one configuration per capacity point.
	var entries []Entry
	for _, label := range labels {
		entries = append(entries, groups[label]...)
	}
	opts := []Options{o}
	for _, mb := range capacitiesMB {
		opt := o
		if mb < llcMB {
			opt.PolluteBytes = uint64(llcMB-mb) << 20
		}
		opts = append(opts, opt)
	}
	results, err := r.grid(entries, opts...)
	if err != nil {
		return nil, err
	}

	var out []LLCSeries
	lo := 0
	for _, label := range labels {
		hi := lo + len(groups[label])
		series := LLCSeries{Label: label}
		baseline, err := averageUserIPC(results[0][lo:hi])
		if err != nil {
			return nil, err
		}
		for k, mb := range capacitiesMB {
			v, err := averageUserIPC(results[1+k][lo:hi])
			if err != nil {
				return nil, err
			}
			norm := 0.0
			if baseline > 0 {
				norm = v / baseline
			}
			series.Points = append(series.Points, LLCPoint{CacheMB: mb, Normalized: norm})
		}
		out = append(out, series)
		lo = hi
	}
	return out, nil
}

// averageUserIPC averages the per-entry mean user-IPC of a group.
func averageUserIPC(results []*EntryResult) (float64, error) {
	if len(results) == 0 {
		return 0, fmt.Errorf("core: empty entry group")
	}
	var sum float64
	for _, res := range results {
		sum += mean(res, func(m *Measurement) float64 { return m.UserIPC() })
	}
	return sum / float64(len(results)), nil
}

// Figure4Groups returns the paper's three curves: the scale-out
// average, the traditional server average, and SPECint mcf.
func Figure4Groups() map[string][]Entry {
	all := FigureEntries()
	groups := map[string][]Entry{
		"Scale-out": all[:6],
	}
	var server []Entry
	for _, e := range all {
		switch e.Label {
		case "SPECweb09", "TPC-C", "TPC-E", "Web Backend":
			server = append(server, e)
		}
	}
	groups["Server"] = server
	groups["SPECint (mcf)"] = []Entry{group("SPECint (mcf)", false, "SPECint (mcf)")}
	return groups
}

// PrefetchRow is one bar group of Figure 5: L2 hit ratios with all
// prefetchers on, with the adjacent-line prefetcher disabled, and with
// the HW (stride) prefetcher disabled.
type PrefetchRow struct {
	Label            string
	Baseline         float64
	AdjacentDisabled float64
	HWDisabled       float64
}

// Figure5 measures L2 hit-ratio sensitivity to the prefetchers.
func (r *Runner) Figure5(entries []Entry, o Options) ([]PrefetchRow, error) {
	mk := func(adj, hw bool) *Machine {
		m := XeonX5670()
		m.Mem.AdjacentLine = adj
		m.Mem.HWPrefetcher = hw
		return &m
	}
	var opts []Options
	for _, m := range []*Machine{mk(true, true), mk(false, true), mk(true, false)} {
		opt := o
		opt.Machine = m
		opts = append(opts, opt)
	}
	results, err := r.grid(entries, opts...)
	if err != nil {
		return nil, err
	}
	l2 := func(c, i int) float64 {
		return mean(results[c][i], func(m *Measurement) float64 { return m.L2HitRatio() })
	}
	rows := make([]PrefetchRow, 0, len(entries))
	for i, e := range entries {
		rows = append(rows, PrefetchRow{
			Label: e.Label, Baseline: l2(0, i),
			AdjacentDisabled: l2(1, i), HWDisabled: l2(2, i),
		})
	}
	return rows, nil
}

// SharingRow is one bar of Figure 6: the fraction of LLC data
// references that hit a block most recently modified by a remote core.
type SharingRow struct {
	Label string
	App   float64
	OS    float64
}

// Figure6 measures read-write sharing with threads split across two
// sockets (Section 3.1's configuration).
func (r *Runner) Figure6(entries []Entry, o Options) ([]SharingRow, error) {
	opt := o
	opt.SplitSockets = true
	results, err := r.grid(entries, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]SharingRow, 0, len(entries))
	for _, res := range results[0] {
		rows = append(rows, SharingRow{
			Label: res.Label,
			App:   mean(res, func(m *Measurement) float64 { return m.SharedRWFracUser() }),
			OS:    mean(res, func(m *Measurement) float64 { return m.SharedRWFracOS() }),
		})
	}
	return rows, nil
}

// BandwidthRow is one bar of Figure 7: off-chip bandwidth utilisation
// split into application and OS shares.
type BandwidthRow struct {
	Label string
	App   float64
	OS    float64
	// TotalCI is the 95% confidence interval of the total utilisation
	// (zero width when sampling is off).
	TotalCI Estimate
}

// Figure7 measures off-chip bandwidth utilisation.
func (r *Runner) Figure7(entries []Entry, o Options) ([]BandwidthRow, error) {
	results, err := r.grid(entries, o)
	if err != nil {
		return nil, err
	}
	rows := make([]BandwidthRow, 0, len(entries))
	for _, res := range results[0] {
		// Split each member's utilisation by the mode of its off-chip
		// read traffic (writebacks charged proportionally), then average.
		app := mean(res, func(m *Measurement) float64 {
			reads := m.OffchipReadUser + m.OffchipReadOS
			if reads == 0 {
				return 0
			}
			return m.DRAMUtilization() * float64(m.OffchipReadUser) / float64(reads)
		})
		osu := mean(res, func(m *Measurement) float64 {
			reads := m.OffchipReadUser + m.OffchipReadOS
			if reads == 0 {
				return 0
			}
			return m.DRAMUtilization() * float64(m.OffchipReadOS) / float64(reads)
		})
		rows = append(rows, BandwidthRow{
			Label: res.Label, App: app, OS: osu,
			TotalCI: res.CI(func(m *Measurement) float64 { return m.DRAMUtilization() }),
		})
	}
	return rows, nil
}
