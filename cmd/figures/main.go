// Command figures regenerates every table and figure of the paper's
// evaluation section on the simulated machine and prints them as text
// tables (the EXPERIMENTS.md data source) or as JSON.
//
// Usage:
//
//	figures [-only 1,3,7] [-fig scaling] [-quick] [-seed 1] [-parallel 4] [-progress]
//	        [-sample] [-intervals 8] [-relerr 0.05] [-invariants 1000] [-json]
//	        [-checkpoint-dir DIR] [-pprof 127.0.0.1:6060] [-obs-out PREFIX]
//
// -only selects numbered figures; -fig selects named experiments beyond
// the paper's figures (currently "scaling", the NUMA scale-up study
// sweeping from a single core up to the 64-core four-socket scaled
// machine). The two compose: selecting anything runs only the
// selection. -invariants N audits the coherence state every N memory
// accesses during every run — a pure observer, so output bytes are
// unchanged.
// -quick shrinks the per-run instruction budgets ~4x for a fast pass.
// -sample switches every measurement from one contiguous window to
// SMARTS-style interval sampling: N short timed intervals spread over
// the same effective horizon, each preceded by functional warming, at
// roughly a fifth of the measured work. -intervals overrides N (default
// 8), -relerr enables adaptive stopping on the 95% CI of IPC; either
// implies -sample. Sampled tables carry ± columns (95% CI half-widths).
// -json emits the selected figures as machine-readable rows plus the
// runner's work statistics instead of text tables.
// -checkpoint-dir enables warm-state checkpointing: every measurement
// forks from a cached warm image when one exists for its warm-relevant
// configuration (benchmark, machine, placement, warm budget, seed) and
// contributes its own image otherwise, with images persisted in DIR
// across invocations. Restored runs are byte-identical to cold runs,
// so the flag changes wall-clock time, never output.
// -pprof ADDR serves net/http/pprof plus the live metrics registry
// (/metrics, /debug/vars) on ADDR for profiling a sweep in flight.
// -obs-out PREFIX arms the observability layer and, on exit, writes
// PREFIX.metrics.json (phase-timing and cache metrics) and
// PREFIX.trace.json (Chrome trace_event format — load it in
// chrome://tracing or https://ui.perfetto.dev). Either flag arms the
// observer; both are pure observers, so figure output stays
// byte-identical to an unobserved run (CI enforces this).
// All selected figures share one measurement Runner: -parallel sets its
// worker-pool width (0 = GOMAXPROCS) and configurations common to
// several figures are measured once and served from the memoization
// cache afterwards. Measurements are bit-reproducible per seed —
// sampled or not — so the output is byte-identical for every -parallel
// value.
// Options are judged by core.Options.Validate alone: a rejected value
// is reported under its flag with exit code 2; a failing -check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cloudsuite/cmd/internal/cli"
	"cloudsuite/internal/core"
	"cloudsuite/internal/report"
)

// jsonDoc is the -json output: one field per selected artefact, the
// options behind them, and the runner's work accounting.
type jsonDoc struct {
	Seed         int64                 `json:"seed"`
	Quick        bool                  `json:"quick,omitempty"`
	Sampling     *core.Sampling        `json:"sampling,omitempty"`
	Table1       []core.TableRow       `json:"table1,omitempty"`
	Figure1      []core.BreakdownRow   `json:"figure1,omitempty"`
	Figure2      []core.InstrMissRow   `json:"figure2,omitempty"`
	Figure3      []core.IPCMLPRow      `json:"figure3,omitempty"`
	Figure4      []core.LLCSeries      `json:"figure4,omitempty"`
	Figure5      []core.PrefetchRow    `json:"figure5,omitempty"`
	Figure6      []core.SharingRow     `json:"figure6,omitempty"`
	Figure7      []core.BandwidthRow   `json:"figure7,omitempty"`
	Implications []core.ImplicationRow `json:"implications,omitempty"`
	IPrefetch    []core.IPrefRow       `json:"iprefetch,omitempty"`
	Scaling      []core.ScaleUpRow     `json:"scaling,omitempty"`
	Claims       []core.Claim          `json:"claims,omitempty"`
	Runner       core.RunnerStats      `json:"runner"`
}

func main() {
	v := defineFlags(flag.CommandLine)
	flag.Parse()

	o, err := buildOptions(flag.CommandLine, v)
	if err != nil {
		cli.Reject(err)
	}
	want := map[string]bool{}
	for _, arg := range []string{v.only, v.fig} {
		if arg == "" {
			continue
		}
		for _, f := range strings.Split(arg, ",") {
			name := strings.TrimSpace(f)
			switch name {
			case "":
				// tolerate stray commas
			case "0", "1", "2", "3", "4", "5", "6", "7", "i", "scaling":
				want[name] = true
			default:
				cli.Reject(fmt.Errorf("unknown figure %q (valid: 0-7, i, scaling)", name))
			}
		}
	}
	// -check runs the claims alone. Otherwise numbered figures run by
	// default when nothing is selected; named experiments only when
	// selected.
	sel := func(n string) bool {
		return !v.check && (want[n] || len(want) == 0 && n != "i" && n != "scaling")
	}
	sampled := o.Sampling.Enabled()

	runner := v.NewRunner()
	doc := &jsonDoc{Seed: v.Seed, Quick: v.quick}
	if sampled {
		// Record the resolved schedule, not the flag spelling.
		s := o.Sampling.Normalize(o.MeasureInsts)
		doc.Sampling = &s
	}
	render := !v.jsonOut

	ok := true
	if v.check {
		ok = runCheck(runner, o, doc, render)
	}

	entries := core.FigureEntries()

	if sel("0") {
		doc.Table1 = core.Table1(core.XeonX5670())
		if render {
			renderTable1(doc.Table1)
		}
	}
	if sel("1") {
		doc.Figure1 = cli.Must(runner.Figure1(entries, o))
		if render {
			renderFigure1(doc.Figure1, sampled)
		}
	}
	if sel("2") {
		doc.Figure2 = cli.Must(runner.Figure2(entries, o))
		if render {
			renderFigure2(doc.Figure2)
		}
	}
	if sel("3") {
		doc.Figure3 = cli.Must(runner.Figure3(entries, o))
		if render {
			renderFigure3(doc.Figure3, sampled)
		}
	}
	if sel("4") {
		doc.Figure4 = cli.Must(runner.Figure4(core.Figure4Groups(), []int{4, 5, 6, 7, 8, 9, 10, 11}, o))
		if render {
			renderFigure4(doc.Figure4)
		}
	}
	if sel("5") {
		doc.Figure5 = cli.Must(runner.Figure5(entries, o))
		if render {
			renderFigure5(doc.Figure5)
		}
	}
	if sel("6") {
		doc.Figure6 = cli.Must(runner.Figure6(entries, o))
		if render {
			renderFigure6(doc.Figure6)
		}
	}
	if sel("7") {
		doc.Figure7 = cli.Must(runner.Figure7(entries, o))
		if render {
			renderFigure7(doc.Figure7, sampled)
		}
	}
	if sel("i") {
		implications(runner, o, doc, render)
	}
	if sel("scaling") {
		doc.Scaling = cli.Must(runner.ScaleUpStudy(core.ScaleOutEntries(), core.ScaleUpPoints(), o))
		if render {
			renderScaling(doc.Scaling)
		}
	}

	if v.jsonOut {
		doc.Runner = runner.Stats()
		emitJSON(doc)
	}
	v.Finish(runner) // on the -check failure exit too: the sweep ran
	if !ok {
		os.Exit(1)
	}
}

func emitJSON(doc *jsonDoc) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		cli.Fail(err)
	}
}

func runCheck(runner *core.Runner, o core.Options, doc *jsonDoc, render bool) bool {
	doc.Claims = cli.Must(runner.Validate(o))
	if render {
		t := report.Table{Title: "Reproduction check", Header: []string{"claim", "verdict", "measured"}}
		for _, c := range doc.Claims {
			verdict := "HOLDS"
			if !c.Holds {
				verdict = "FAILS"
			}
			t.Add(c.ID+" "+c.Statement, verdict, c.Detail)
		}
		t.Render(os.Stdout)
	}
	return core.AllHold(doc.Claims)
}

func implications(runner *core.Runner, o core.Options, doc *jsonDoc, render bool) {
	so := core.ScaleOutEntries()
	rows := cli.Must(runner.Implications(so, o))
	irows := cli.Must(runner.InstructionPrefetchStudy(so, o))
	doc.Implications, doc.IPrefetch = rows, irows
	if !render {
		return
	}
	t := report.Table{
		Title:  "Implications: conventional vs scale-out-optimized CMP",
		Header: []string{"Workload", "IPC(conv)", "IPC(opt,SMT)", "chip(conv)", "chip(opt)", "dens(conv)", "dens(opt)", "gain", "pJ/op(conv)", "pJ/op(opt)"},
	}
	for _, r := range rows {
		t.Add(r.Label, report.F2(r.ConvIPC), report.F2(r.OptIPC),
			report.F1(r.ConvChipThroughput), report.F1(r.OptChipThroughput),
			report.F2(r.ConvDensity), report.F2(r.OptDensity),
			fmt.Sprintf("%.1fx", r.OptDensity/r.ConvDensity),
			report.F1(r.ConvPJPerInstr), report.F1(r.OptPJPerInstr))
	}
	t.Render(os.Stdout)

	it := report.Table{
		Title:  "Implications: instruction-prefetcher study (L1-I MPKI / IPC)",
		Header: []string{"Workload", "none", "next-line", "stream", "IPC none", "IPC next", "IPC stream"},
	}
	for _, r := range irows {
		it.Add(r.Label, report.F1(r.MPKINone), report.F1(r.MPKINextLine), report.F1(r.MPKIStream),
			report.F2(r.IPCNone), report.F2(r.IPCNextLine), report.F2(r.IPCStream))
	}
	it.Render(os.Stdout)
}

func renderScaling(rows []core.ScaleUpRow) {
	t := report.Table{
		Title:  "Scale-up study: scale-out workloads vs cores and sockets",
		Header: []string{"Workload", "SxC", "chip IPC", "speedup", "MLP", "BW util", "rem-hit/KI", "rem-DRAM"},
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			t.Add(r.Label, fmt.Sprintf("%dx%d", c.Sockets, c.Cores),
				report.F2(c.ChipIPC), fmt.Sprintf("%.2fx", c.Speedup),
				report.F2(c.MLP), report.Pct(c.BWUtil),
				report.F2(c.RemoteHitPKI), report.Pct(c.RemoteDRAMFrac))
		}
	}
	t.Render(os.Stdout)
}

func renderTable1(rows []core.TableRow) {
	t := report.Table{Title: "Table 1. Architectural parameters", Header: []string{"Parameter", "Value"}}
	for _, r := range rows {
		t.Add(r.Parameter, r.Value)
	}
	t.Render(os.Stdout)
}

func renderFigure1(rows []core.BreakdownRow, sampled bool) {
	t := report.Table{
		Title:  "Figure 1. Execution-time breakdown and memory cycles",
		Header: []string{"Workload", "Commit(App)", "Commit(OS)", "Stall(App)", "Stall(OS)", "Memory"},
	}
	if sampled {
		t.Header = append(t.Header, "Mem ±95")
	}
	for _, r := range rows {
		cells := []string{r.Label, report.Pct(r.CommittingUser), report.Pct(r.CommittingOS),
			report.Pct(r.StalledUser), report.Pct(r.StalledOS), report.Pct(r.Memory)}
		if sampled {
			cells = append(cells, report.PMPct(r.MemoryCI.Half))
		}
		t.Add(cells...)
	}
	t.Render(os.Stdout)
}

func renderFigure2(rows []core.InstrMissRow) {
	t := report.Table{
		Title:  "Figure 2. L1-I and L2 instruction misses per k-instruction",
		Header: []string{"Workload", "L1-I(App)", "L1-I(OS)", "L2(App)", "L2(OS)"},
	}
	for _, r := range rows {
		osL1, osL2 := report.F1(r.L1IOS), report.F1(r.L2IOS)
		if !r.ShowOS {
			osL1, osL2 = "-", "-"
		}
		t.Add(r.Label, report.F1(r.L1IApp), osL1, report.F1(r.L2IApp), osL2)
	}
	t.Render(os.Stdout)
}

func renderFigure3(rows []core.IPCMLPRow, sampled bool) {
	t := report.Table{
		Title:  "Figure 3. Application IPC (max 4) and MLP, baseline vs SMT",
		Header: []string{"Workload", "IPC", "IPC(SMT)", "IPC rng", "MLP", "MLP(SMT)", "MLP rng", "SMT gain"},
	}
	if sampled {
		t.Header = append(t.Header, "IPC ±95", "MLP ±95")
	}
	for _, r := range rows {
		rngIPC, rngMLP := "-", "-"
		if r.MembersCounted > 1 {
			rngIPC = fmt.Sprintf("%.2f-%.2f", r.IPCLo, r.IPCHi)
			rngMLP = fmt.Sprintf("%.2f-%.2f", r.MLPLo, r.MLPHi)
		}
		cells := []string{r.Label, report.F2(r.IPCBase), report.F2(r.IPCSMT), rngIPC,
			report.F2(r.MLPBase), report.F2(r.MLPSMT), rngMLP,
			fmt.Sprintf("%.0f%%", 100*(r.SMTSpeedup-1))}
		if sampled {
			cells = append(cells, report.PM(r.IPCCI.Half), report.PM(r.MLPCI.Half))
		}
		t.Add(cells...)
	}
	t.Render(os.Stdout)
}

func renderFigure4(series []core.LLCSeries) {
	t := report.Table{
		Title:  "Figure 4. User-IPC vs LLC capacity (normalized to 12MB baseline)",
		Header: []string{"Series", "4MB", "5MB", "6MB", "7MB", "8MB", "9MB", "10MB", "11MB"},
	}
	for _, s := range series {
		cells := []string{s.Label}
		for _, p := range s.Points {
			cells = append(cells, report.F2(p.Normalized))
		}
		t.Add(cells...)
	}
	t.Render(os.Stdout)
}

func renderFigure5(rows []core.PrefetchRow) {
	t := report.Table{
		Title:  "Figure 5. L2 hit ratio with prefetchers enabled/disabled",
		Header: []string{"Workload", "Baseline", "Adj-line off", "HW pref off"},
	}
	for _, r := range rows {
		t.Add(r.Label, report.Pct(r.Baseline), report.Pct(r.AdjacentDisabled), report.Pct(r.HWDisabled))
	}
	t.Render(os.Stdout)
}

func renderFigure6(rows []core.SharingRow) {
	t := report.Table{
		Title:  "Figure 6. Read-write shared LLC hits (normalized to LLC data refs)",
		Header: []string{"Workload", "Application", "OS"},
	}
	for _, r := range rows {
		t.Add(r.Label, report.Pct(r.App), report.Pct(r.OS))
	}
	t.Render(os.Stdout)
}

func renderFigure7(rows []core.BandwidthRow, sampled bool) {
	t := report.Table{
		Title:  "Figure 7. Off-chip memory bandwidth utilization",
		Header: []string{"Workload", "Application", "OS", "Total"},
	}
	if sampled {
		t.Header = append(t.Header, "Tot ±95")
	}
	for _, r := range rows {
		cells := []string{r.Label, report.Pct(r.App), report.Pct(r.OS), report.Pct(r.App + r.OS)}
		if sampled {
			cells = append(cells, report.PMPct(r.TotalCI.Half))
		}
		t.Add(cells...)
	}
	t.Render(os.Stdout)
}
