package core

import (
	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/dram"
	"cloudsuite/internal/sim/engine"
	"cloudsuite/internal/sim/power"
)

// This file implements the paper's *implications* as measurable
// experiments — the architectural directions Sections 4.1-4.4 and the
// conclusion argue for:
//
//   - a scale-out-optimized processor: modest two-wide out-of-order
//     cores with SMT, a two-level cache hierarchy with a small LLC,
//     and scaled-back off-chip bandwidth, trading the saved area for
//     more cores (Section 6);
//   - instruction prefetchers that capture the complex miss patterns
//     next-line prefetching cannot (Section 4.1).

// ScaleOutProcessor returns the processor the paper's implications
// describe. Core aggressiveness is halved (2-wide, small window), the
// L2 is removed in favour of a flat two-level hierarchy, the LLC is
// sized to the instruction working set plus supporting structures
// (4MB), one DDR3 channel is dropped, and the front-end gets a
// stream-based instruction prefetcher. The saved area hosts twelve
// SMT-2 cores instead of six.
func ScaleOutProcessor() Machine {
	return Machine{
		Name: "Scale-out optimized CMP",
		Core: engine.CoreConfig{
			Width: 2, ROB: 48, RS: 16, LoadQ: 24, StoreQ: 16,
			MSHRs: 10, MispredictPenalty: 10,
			ALULatency: 1, MulLatency: 3, FPLatency: 4,
		},
		Mem: cache.SystemConfig{
			Sockets:        1,
			CoresPerSocket: 12,
			L1I:            cache.Config{SizeBytes: 32 << 10, Assoc: 4, LatencyCycles: 3},
			L1D:            cache.Config{SizeBytes: 32 << 10, Assoc: 8, LatencyCycles: 3},
			// The "L2" is a thin bypass: same capacity as L1 victims need,
			// modelled as a small second level with near-L1 latency so the
			// hierarchy behaves as the flat two-level design the paper
			// suggests.
			L2:           cache.Config{SizeBytes: 64 << 10, Assoc: 8, LatencyCycles: 5},
			LLC:          cache.Config{SizeBytes: 4 << 20, Assoc: 16, LatencyCycles: 17},
			AdjacentLine: false,
			HWPrefetcher: true,
			DCUStreamer:  true,
			IPrefetch:    cache.IPrefStream,
			// Partitioned LLC: instruction blocks replicated near the
			// requesting cores (Section 4.1's implication).
			LLCInstrLatencyCycles: 9,
			RemoteHitCycles:       110,
			DRAM:                  dram.Config{Channels: 2, AccessCycles: 190, TransferCycles: 18},
		},
	}
}

// AreaUnits is a coarse die-area proxy used to compare chip designs:
// a 4-wide OoO core with its private caches costs ~4 units, a 2-wide
// core ~1.5 (out-of-order structures scale super-linearly with width),
// and the LLC ~1 unit per megabyte — consistent with the paper's
// observation that cores and LLC each occupy about half the die.
func AreaUnits(m Machine) float64 {
	perCore := 1.5
	if m.Core.Width >= 4 {
		perCore = 4
	}
	return perCore*float64(m.Mem.CoresPerSocket) + float64(m.Mem.LLC.SizeBytes>>20)
}

// ImplicationRow compares one workload on the conventional and the
// scale-out-optimized designs.
type ImplicationRow struct {
	Label string
	// ConvIPC / OptIPC are per-core IPC on each design (the optimized
	// design runs two hardware threads per core).
	ConvIPC float64
	OptIPC  float64
	// ChipThroughput fields scale per-core IPC by core count: the
	// whole-chip instruction throughput proxy.
	ConvChipThroughput float64
	OptChipThroughput  float64
	// Density fields divide chip throughput by the area proxy: the
	// paper's computational-density argument.
	ConvDensity float64
	OptDensity  float64
	// Per-operation energy (picojoules per instruction) on each design:
	// the paper's energy-efficiency argument, from the event-based
	// power model.
	ConvPJPerInstr float64
	OptPJPerInstr  float64
}

// Implications measures entries on the Table-1 machine and on the
// scale-out-optimized design, comparing chip-level computational
// density (Section 6: "improved computational density and power
// efficiency").
func (r *Runner) Implications(entries []Entry, o Options) ([]ImplicationRow, error) {
	conv := XeonX5670()
	opt := ScaleOutProcessor()
	convArea := AreaUnits(conv)
	optArea := AreaUnits(opt)

	oc := o
	oc.Machine = &conv
	oo := o
	oo.Machine = &opt
	oo.SMT = true // the optimized design relies on multi-threading
	sets := append(entrySets(entries, oc), entrySets(entries, oo)...)
	results, err := r.measureEntrySets(sets)
	if err != nil {
		return nil, err
	}

	rows := make([]ImplicationRow, 0, len(entries))
	for i, e := range entries {
		rc, ro := results[i], results[len(entries)+i]
		cIPC, _, _ := rc.MeanMinMax(func(m *Measurement) float64 { return m.IPC() })
		oIPC, _, _ := ro.MeanMinMax(func(m *Measurement) float64 { return m.IPC() })
		cPJ, _, _ := rc.MeanMinMax(func(m *Measurement) float64 {
			pp := power.ConventionalParams(conv.Mem.CoresPerSocket, conv.Mem.LLC.SizeBytes>>20)
			return power.Estimate(pp, &m.Counters, o.Cores).PJPerInstruction()
		})
		oPJ, _, _ := ro.MeanMinMax(func(m *Measurement) float64 {
			pp := power.ModestParams(opt.Mem.CoresPerSocket, opt.Mem.LLC.SizeBytes>>20)
			return power.Estimate(pp, &m.Counters, o.Cores).PJPerInstruction()
		})
		row := ImplicationRow{
			Label:              e.Label,
			ConvIPC:            cIPC,
			OptIPC:             oIPC,
			ConvChipThroughput: cIPC * float64(conv.Mem.CoresPerSocket),
			OptChipThroughput:  oIPC * float64(opt.Mem.CoresPerSocket),
		}
		row.ConvDensity = row.ConvChipThroughput / convArea
		row.OptDensity = row.OptChipThroughput / optArea
		row.ConvPJPerInstr = cPJ
		row.OptPJPerInstr = oPJ
		rows = append(rows, row)
	}
	return rows, nil
}

// IPrefRow compares instruction-prefetch designs for one workload.
type IPrefRow struct {
	Label string
	// L1-I misses per kilo-instruction under each front-end.
	MPKINone, MPKINextLine, MPKIStream float64
	// IPC under each front-end.
	IPCNone, IPCNextLine, IPCStream float64
}

// InstructionPrefetchStudy measures entries with no instruction
// prefetcher, the conventional next-line prefetcher, and the
// stream-based prefetcher the paper's Section 4.1 implications call
// for.
func (r *Runner) InstructionPrefetchStudy(entries []Entry, o Options) ([]IPrefRow, error) {
	mk := func(mode cache.IPrefMode) *Machine {
		m := XeonX5670()
		m.Mem.IPrefetch = mode
		return &m
	}
	configs := []*Machine{mk(cache.IPrefNone), mk(cache.IPrefNextLine), mk(cache.IPrefStream)}
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
	rows := make([]IPrefRow, 0, len(entries))
	for i, e := range entries {
		var mpki, ipc [3]float64
		for c := range configs {
			res := results[c*len(entries)+i]
			mpki[c], _, _ = res.MeanMinMax(func(m *Measurement) float64 { return m.L1IMPKIUser() + m.L1IMPKIOS() })
			ipc[c], _, _ = res.MeanMinMax(func(m *Measurement) float64 { return m.IPC() })
		}
		rows = append(rows, IPrefRow{
			Label:    e.Label,
			MPKINone: mpki[0], MPKINextLine: mpki[1], MPKIStream: mpki[2],
			IPCNone: ipc[0], IPCNextLine: ipc[1], IPCStream: ipc[2],
		})
	}
	return rows, nil
}
