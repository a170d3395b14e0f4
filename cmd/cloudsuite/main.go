// Command cloudsuite runs benchmarks of the suite on the simulated
// Xeon X5670 and prints their performance-counter characterization, the
// equivalent of VTune measurement runs from the paper.
//
// Usage:
//
//	cloudsuite -list
//	cloudsuite -bench "Web Search" [-cores 4] [-sockets 2] [-cores-per-socket 16]
//	           [-smt] [-split] [-pollute 6] [-warmup 400000] [-measure 120000]
//	           [-seed 1] [-sample] [-intervals 8] [-relerr 0.05]
//	           [-invariants 1000] [-checkpoint-dir DIR]
//	           [-pprof 127.0.0.1:6060] [-obs-out PREFIX]
//	cloudsuite -bench "Web Search,Data Serving" [-parallel 4] [-progress]
//	cloudsuite -bench all
//
// -bench accepts a single name, a comma-separated list, or "all"; with
// more than one benchmark the measurements are fanned out across a
// worker pool (-parallel, 0 = GOMAXPROCS) and reported in the order
// given. -sample replaces the contiguous measured window with
// SMARTS-style interval sampling (-intervals windows spread over the
// -measure horizon, each preceded by functional warming) and reports
// 95% confidence intervals; -relerr additionally stops sampling early
// once the CI of IPC is within the requested relative error. Results
// are bit-reproducible per seed — sampled or not — so the output is
// identical for every -parallel value.
// -checkpoint-dir enables warm-state checkpointing: runs fork from
// cached warm images (persisted in DIR across invocations) instead of
// re-executing functional warming, byte-identically to a cold run.
// -sockets and -cores-per-socket select the machine grid: the directory
// tracks up to 256 cores, so scaled machines like 4x16 or 8x32 run
// directly. -invariants N audits the full coherence state (directory
// consistency, inclusion, socket locality) every N memory accesses —
// an observer only, measurements are unchanged.
// -pprof ADDR serves net/http/pprof and the live metrics registry on
// ADDR; -obs-out PREFIX writes PREFIX.metrics.json and
// PREFIX.trace.json (Chrome trace_event format) on exit. Either flag
// arms the observability layer, a pure observer: measured output is
// byte-identical with or without it.
// Options are judged by core.Options.Validate alone, where 0 selects
// a default; a rejected value is reported under its flag, exit code 2.
// -warmup 0 is refused rather than silently read as the default.
package main

import (
	"flag"
	"fmt"
	"strings"

	"cloudsuite/cmd/internal/cli"
	"cloudsuite/internal/core"
)

func main() {
	v := defineFlags(flag.CommandLine)
	flag.Parse()

	if v.list {
		for _, b := range core.AllBenches() {
			fmt.Printf("%-28s %s\n", b.Name, b.Class)
		}
		return
	}

	benches, err := resolveBenches(v.bench)
	if err != nil {
		cli.Reject(err)
	}
	o, err := buildOptions(flag.CommandLine, v)
	if err != nil {
		cli.Reject(err)
	}
	runner := v.NewRunner()
	reqs := make([]core.MeasureRequest, len(benches))
	for i, b := range benches {
		reqs[i] = core.MeasureRequest{Bench: b, Options: o}
	}
	for i, m := range cli.Must(runner.MeasureAll(reqs)) {
		if i > 0 {
			fmt.Println()
		}
		printMeasurement(m)
	}
	v.Finish(runner)
}

// resolveBenches parses the -bench argument: one name, a comma list,
// or "all".
func resolveBenches(arg string) ([]core.Bench, error) {
	if strings.EqualFold(strings.TrimSpace(arg), "all") {
		return core.AllBenches(), nil
	}
	var out []core.Bench
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, ok := core.FindBench(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (use -list)", name)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark named (use -list)")
	}
	return out, nil
}

func printMeasurement(m *core.Measurement) {
	c := &m.Counters
	fmt.Printf("benchmark        %s\n", m.BenchName)
	fmt.Printf("cycles           %d (window)\n", m.Cycles)
	fmt.Printf("instructions     %d user, %d OS (%.1f%% OS)\n",
		c.CommitUser, c.CommitOS, 100*float64(c.CommitOS)/float64(c.Commits()))
	fmt.Printf("IPC              %.3f total, %.3f user\n", c.IPC(), c.UserIPC())
	fmt.Printf("MLP              %.2f\n", c.MLP())
	fmt.Printf("cycle breakdown  commit %.1f%% (user %.1f%%, OS %.1f%%), stall %.1f%% (user %.1f%%, OS %.1f%%)\n",
		100-100*c.StallFrac(),
		100*float64(c.CommitCyclesUser)/float64(c.Cycles),
		100*float64(c.CommitCyclesOS)/float64(c.Cycles),
		100*c.StallFrac(),
		100*float64(c.StallCyclesUser)/float64(c.Cycles),
		100*float64(c.StallCyclesOS)/float64(c.Cycles))
	fmt.Printf("memory cycles    %.1f%%\n", 100*c.MemCycleFrac())
	fmt.Printf("L1-I MPKI        %.1f user, %.1f OS\n", c.L1IMPKIUser(), c.L1IMPKIOS())
	fmt.Printf("L2-I MPKI        %.1f user, %.1f OS\n", c.L2IMPKIUser(), c.L2IMPKIOS())
	fmt.Printf("L2 hit ratio     %.1f%%\n", 100*c.L2HitRatio())
	fmt.Printf("LLC hit ratio    %.1f%% (%d accesses)\n", 100*c.LLCHitRatio(), c.LLCAccess)
	fmt.Printf("RW-shared hits   %.2f%% app, %.2f%% OS (of LLC data refs)\n",
		100*c.SharedRWFracUser(), 100*c.SharedRWFracOS())
	fmt.Printf("remote socket    %d cache hits, %.1f%% of DRAM reads remote\n",
		c.RemoteSocketHit, 100*c.RemoteDRAMFrac())
	fmt.Printf("off-chip BW      %.1f%% utilization (%d KB read, %d KB written)\n",
		100*c.DRAMUtilization(), (c.OffchipReadUser+c.OffchipReadOS)>>10, c.OffchipWriteback>>10)
	fmt.Printf("branches         %.2f%% mispredicted\n", 100*c.MispredictRate())
	fmt.Printf("prefetch         %d issued, %d useful, %d evicted unused\n",
		c.PrefIssued, c.PrefUseful, c.PrefEvicted)
	fmt.Printf("L2 demand        %d accesses, %d hits\n", c.L2Access, c.L2Hit)
	if m.Sampled() {
		ipc := m.CI(func(m *core.Measurement) float64 { return m.IPC() })
		mlp := m.CI(func(m *core.Measurement) float64 { return m.MLP() })
		mem := m.CI(func(m *core.Measurement) float64 { return m.MemCycleFrac() })
		bw := m.CI(func(m *core.Measurement) float64 { return m.DRAMUtilization() })
		fmt.Printf("sampling         %d intervals, %d measured insts\n", len(m.Samples), c.Commits())
		fmt.Printf("95%% CI           IPC %.3f±%.3f (rel ±%.1f%%), MLP %.2f±%.2f, mem cycles %.1f%%±%.1f%%, BW util %.1f%%±%.1f%%\n",
			ipc.Mean, ipc.Half, 100*ipc.RelErr(), mlp.Mean, mlp.Half,
			100*mem.Mean, 100*mem.Half, 100*bw.Mean, 100*bw.Half)
	}
}
