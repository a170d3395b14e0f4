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
//
// The package-level Figure functions are serial conveniences: each runs
// its driver on a fresh single-worker Runner. Callers that regenerate
// several figures should share one Runner so configurations common to
// multiple figures (the baseline entries appear in Figures 1, 2, 3 and
// 7) are measured once.

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
	results, err := r.measureEntrySets(entrySets(entries, o))
	if err != nil {
		return nil, err
	}
	rows := make([]BreakdownRow, 0, len(entries))
	for i, e := range entries {
		res := results[i]
		cu, _, _ := res.MeanMinMax(func(m *Measurement) float64 {
			return float64(m.CommitCyclesUser) / float64(m.Cycles)
		})
		co, _, _ := res.MeanMinMax(func(m *Measurement) float64 {
			return float64(m.CommitCyclesOS) / float64(m.Cycles)
		})
		su, _, _ := res.MeanMinMax(func(m *Measurement) float64 {
			return float64(m.StallCyclesUser) / float64(m.Cycles)
		})
		so, _, _ := res.MeanMinMax(func(m *Measurement) float64 {
			return float64(m.StallCyclesOS) / float64(m.Cycles)
		})
		mem, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.MemCycleFrac() })
		rows = append(rows, BreakdownRow{
			Label: e.Label, CommittingUser: cu, CommittingOS: co,
			StalledUser: su, StalledOS: so, Memory: mem,
			MemoryCI: res.CI(func(m *Measurement) float64 { return m.MemCycleFrac() }),
		})
	}
	return rows, nil
}

// entrySets pairs every entry with the same options.
func entrySets(entries []Entry, o Options) []entrySet {
	sets := make([]entrySet, len(entries))
	for i, e := range entries {
		sets[i] = entrySet{e: e, o: o}
	}
	return sets
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
	results, err := r.measureEntrySets(entrySets(entries, o))
	if err != nil {
		return nil, err
	}
	rows := make([]InstrMissRow, 0, len(entries))
	for i, e := range entries {
		res := results[i]
		l1a, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.L1IMPKIUser() })
		l1o, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.L1IMPKIOS() })
		l2a, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.L2IMPKIUser() })
		l2o, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.L2IMPKIOS() })
		rows = append(rows, InstrMissRow{
			Label: e.Label, L1IApp: l1a, L1IOS: l1o, L2IApp: l2a, L2IOS: l2o,
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
	sets := append(entrySets(entries, o), entrySets(entries, oSMT)...)
	results, err := r.measureEntrySets(sets)
	if err != nil {
		return nil, err
	}
	rows := make([]IPCMLPRow, 0, len(entries))
	for i, e := range entries {
		base, smt := results[i], results[len(entries)+i]
		ipc, ipcLo, ipcHi := base.MeanMinMax(func(m *Measurement) float64 { return m.IPC() })
		mlp, mlpLo, mlpHi := base.MeanMinMax(func(m *Measurement) float64 { return m.MLP() })
		ipcS, _, _ := smt.MeanMinMax(func(m *Measurement) float64 { return m.IPC() })
		mlpS, _, _ := smt.MeanMinMax(func(m *Measurement) float64 { return m.MLP() })
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

	// Enumerate the whole sweep: for each group, the unpolluted baseline
	// followed by one configuration per capacity point.
	var sets []entrySet
	for _, label := range labels {
		sets = append(sets, entrySets(groups[label], o)...)
		for _, mb := range capacitiesMB {
			opt := o
			if mb < llcMB {
				opt.PolluteBytes = uint64(llcMB-mb) << 20
			}
			sets = append(sets, entrySets(groups[label], opt)...)
		}
	}
	results, err := r.measureEntrySets(sets)
	if err != nil {
		return nil, err
	}

	var out []LLCSeries
	pos := 0
	take := func(n int) []*EntryResult {
		group := results[pos : pos+n]
		pos += n
		return group
	}
	for _, label := range labels {
		n := len(groups[label])
		series := LLCSeries{Label: label}
		baseline, err := averageUserIPC(take(n))
		if err != nil {
			return nil, err
		}
		for _, mb := range capacitiesMB {
			v, err := averageUserIPC(take(n))
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
		v, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.UserIPC() })
		sum += v
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
	mcf, ok := FindBench("SPECint (mcf)")
	if !ok {
		panic("core: mcf bench missing")
	}
	groups["SPECint (mcf)"] = []Entry{{Label: "SPECint (mcf)", Members: []Bench{mcf}}}
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
	configs := []*Machine{mk(true, true), mk(false, true), mk(true, false)}
	var sets []entrySet
	for _, m := range configs {
		opt := o
		opt.Machine = m
		sets = append(sets, entrySets(entries, opt)...)
	}
	results, err := r.measureEntrySets(sets)
	if err != nil {
		return nil, err
	}
	rows := make([]PrefetchRow, 0, len(entries))
	for i, e := range entries {
		var vals [3]float64
		for c := range configs {
			vals[c], _, _ = results[c*len(entries)+i].MeanMinMax(func(m *Measurement) float64 { return m.L2HitRatio() })
		}
		rows = append(rows, PrefetchRow{
			Label: e.Label, Baseline: vals[0],
			AdjacentDisabled: vals[1], HWDisabled: vals[2],
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
	results, err := r.measureEntrySets(entrySets(entries, opt))
	if err != nil {
		return nil, err
	}
	rows := make([]SharingRow, 0, len(entries))
	for i, e := range entries {
		res := results[i]
		app, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.SharedRWFracUser() })
		osv, _, _ := res.MeanMinMax(func(m *Measurement) float64 { return m.SharedRWFracOS() })
		rows = append(rows, SharingRow{Label: e.Label, App: app, OS: osv})
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
	results, err := r.measureEntrySets(entrySets(entries, o))
	if err != nil {
		return nil, err
	}
	rows := make([]BandwidthRow, 0, len(entries))
	for i, e := range entries {
		res := results[i]
		// Split each member's utilisation by the mode of its off-chip
		// read traffic (writebacks charged proportionally), then average.
		app, _, _ := res.MeanMinMax(func(m *Measurement) float64 {
			reads := m.OffchipReadUser + m.OffchipReadOS
			if reads == 0 {
				return 0
			}
			return m.DRAMUtilization() * float64(m.OffchipReadUser) / float64(reads)
		})
		osu, _, _ := res.MeanMinMax(func(m *Measurement) float64 {
			reads := m.OffchipReadUser + m.OffchipReadOS
			if reads == 0 {
				return 0
			}
			return m.DRAMUtilization() * float64(m.OffchipReadOS) / float64(reads)
		})
		rows = append(rows, BandwidthRow{
			Label: e.Label, App: app, OS: osu,
			TotalCI: res.CI(func(m *Measurement) float64 { return m.DRAMUtilization() }),
		})
	}
	return rows, nil
}
