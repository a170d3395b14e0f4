// Command tracedump inspects a workload's dynamic instruction stream
// without running the timing model: operation mix, code and data
// footprints, dependence-distance histogram, branch statistics, and
// kernel share. It answers "what does this workload look like to the
// micro-architecture" directly from the trace layer — handy when
// developing new workload models.
//
// Usage:
//
//	tracedump -bench "Data Serving" [-insts 500000] [-threads 1] [-seed 1] [-json]
//
// -json replaces the text tables with one machine-readable JSON object
// (full operation mix, footprints, and dependence histogram) for
// scripted comparisons across workloads.
//
// The histogram's top bucket, ">128", counts distances from 129 up to
// 255: an instruction records its dependence distances saturated at
// trace.MaxDepDist, so 255 stands for 255 or farther.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cloudsuite/internal/core"
	"cloudsuite/internal/report"
	"cloudsuite/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args, profiles the requested stream, and writes the report
// to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracedump", flag.ExitOnError)
	var (
		bench   = fs.String("bench", "Data Serving", "benchmark name")
		insts   = fs.Int("insts", 500_000, "instructions to inspect per thread")
		threads = fs.Int("threads", 1, "software threads")
		seed    = fs.Int64("seed", 1, "random seed")
		jsonOut = fs.Bool("json", false, "machine-readable JSON output instead of text tables")
	)
	fs.Parse(args) // exits on a bad flag, as flag.Parse does

	b, ok := core.FindBench(*bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *bench)
	}
	gens := b.New().Start(*threads, *seed)
	defer func() {
		for _, g := range gens {
			g.Close()
		}
	}()

	const pullInsts = 8192 // fixes where Steps run, as engine batches do
	var s stats
	for _, g := range gens {
		remaining := *insts
		for remaining > 0 {
			b := g.Batch(pullInsts)
			if len(b) == 0 {
				break
			}
			b = b[:min(len(b), remaining)]
			s.add(b)
			remaining -= len(b)
		}
	}
	if *jsonOut {
		return s.renderJSON(out, b.Name)
	}
	s.render(out, b.Name)
	return nil
}

type stats struct {
	total, loads, stores, branches, taken, fp, mul, kernel int
	chases                                                 int
	codeLines                                              map[uint64]bool
	kernCodeLines                                          map[uint64]bool
	dataLines                                              map[uint64]bool
	depHist                                                [8]int // distance buckets
	sizes                                                  map[uint8]int
}

func (s *stats) add(insts []trace.Inst) {
	if s.codeLines == nil {
		s.codeLines = map[uint64]bool{}
		s.kernCodeLines = map[uint64]bool{}
		s.dataLines = map[uint64]bool{}
		s.sizes = map[uint8]int{}
	}
	for i := range insts {
		in := &insts[i]
		s.total++
		if in.Kernel {
			s.kernel++
			s.kernCodeLines[in.PC>>6] = true
		} else {
			s.codeLines[in.PC>>6] = true
		}
		switch in.Op {
		case trace.OpLoad:
			s.loads++
			s.dataLines[in.Addr>>6] = true
			s.sizes[in.Size]++
			if in.AcquiresDep {
				s.chases++
			}
		case trace.OpStore:
			s.stores++
			s.dataLines[in.Addr>>6] = true
		case trace.OpBranch:
			s.branches++
			if in.Taken {
				s.taken++
			}
		case trace.OpFP:
			s.fp++
		case trace.OpMul:
			s.mul++
		}
		if d := in.DepA; d > 0 {
			s.depHist[bucket(d)]++
		}
		if d := in.DepB; d > 0 {
			s.depHist[bucket(d)]++
		}
	}
}

// bucket maps a dependence distance to its histogram bucket; the top
// one holds 129 up to the saturated 255.
func bucket(d uint8) int {
	switch {
	case d <= 1:
		return 0
	case d <= 2:
		return 1
	case d <= 4:
		return 2
	case d <= 8:
		return 3
	case d <= 16:
		return 4
	case d <= 48:
		return 5
	case d <= 128:
		return 6
	default:
		return 7
	}
}

// alu is the residual operation class: plain integer ALU and other
// non-memory, non-branch, non-FP/mul work.
func (s *stats) alu() int {
	return s.total - s.loads - s.stores - s.branches - s.fp - s.mul
}

// pctOf is a share of the total instruction count, in percent.
func (s *stats) pctOf(n int) float64 { return 100 * float64(n) / float64(max(1, s.total)) }

func (s *stats) render(out io.Writer, name string) {
	pct := func(n int) string { return fmt.Sprintf("%.1f%%", s.pctOf(n)) }
	t := report.Table{Title: "Trace profile: " + name, Header: []string{"metric", "value"}}
	t.Add("instructions", fmt.Sprint(s.total))
	t.Add("kernel mode", pct(s.kernel))
	t.Add("pointer-chasing loads", fmt.Sprintf("%.1f%% of loads", 100*float64(s.chases)/float64(max(1, s.loads))))
	t.Add("user code footprint", kb(len(s.codeLines)*64))
	t.Add("kernel code footprint", kb(len(s.kernCodeLines)*64))
	t.Add("data footprint touched", kb(len(s.dataLines)*64))
	t.Render(out)

	// Operation mix: every committed instruction lands in exactly one
	// class, so the shares sum to 100%.
	mix := report.Table{Title: "Operation mix", Header: []string{"op", "share", ""}}
	for _, row := range []struct {
		name string
		n    int
	}{
		{"load", s.loads}, {"store", s.stores}, {"branch", s.branches},
		{"fp", s.fp}, {"mul", s.mul}, {"alu/other", s.alu()},
	} {
		frac := float64(row.n) / float64(max(1, s.total))
		mix.Add(row.name, fmt.Sprintf("%.1f%%", 100*frac), report.Bar(frac, 1, 30))
	}
	mix.Add("  taken branches", fmt.Sprintf("%.1f%% of branches", 100*float64(s.taken)/float64(max(1, s.branches))), "")
	mix.Render(out)

	labels := []string{"1", "2", "3-4", "5-8", "9-16", "17-48", "49-128", ">128"}
	var depTotal int
	for _, n := range s.depHist {
		depTotal += n
	}
	h := report.Table{Title: "Dependence-distance histogram", Header: []string{"distance", "share", ""}}
	for i, n := range s.depHist {
		frac := float64(n) / float64(max(1, depTotal))
		h.Add(labels[i], fmt.Sprintf("%.1f%%", 100*frac), report.Bar(frac, 0.5, 30))
	}
	h.Render(out)
}

// jsonProfile is the -json output: one object per invocation with the
// complete operation mix (shares in percent of all instructions, except
// where named otherwise), footprints in bytes, and the
// dependence-distance histogram.
type jsonProfile struct {
	Bench        string  `json:"bench"`
	Instructions int     `json:"instructions"`
	LoadPct      float64 `json:"load_pct"`
	StorePct     float64 `json:"store_pct"`
	BranchPct    float64 `json:"branch_pct"`
	FPPct        float64 `json:"fp_pct"`
	MulPct       float64 `json:"mul_pct"`
	ALUPct       float64 `json:"alu_pct"`
	KernelPct    float64 `json:"kernel_pct"`
	TakenPct     float64 `json:"taken_pct_of_branches"`
	ChasePct     float64 `json:"pointer_chase_pct_of_loads"`
	UserCode     int     `json:"user_code_bytes"`
	KernelCode   int     `json:"kernel_code_bytes"`
	Data         int     `json:"data_bytes"`
	DepHist      []struct {
		Distance string `json:"distance"`
		Count    int    `json:"count"`
	} `json:"dep_hist"`
}

func (s *stats) renderJSON(out io.Writer, name string) error {
	doc := jsonProfile{
		Bench:        name,
		Instructions: s.total,
		LoadPct:      s.pctOf(s.loads),
		StorePct:     s.pctOf(s.stores),
		BranchPct:    s.pctOf(s.branches),
		FPPct:        s.pctOf(s.fp),
		MulPct:       s.pctOf(s.mul),
		ALUPct:       s.pctOf(s.alu()),
		KernelPct:    s.pctOf(s.kernel),
		TakenPct:     100 * float64(s.taken) / float64(max(1, s.branches)),
		ChasePct:     100 * float64(s.chases) / float64(max(1, s.loads)),
		UserCode:     len(s.codeLines) * 64,
		KernelCode:   len(s.kernCodeLines) * 64,
		Data:         len(s.dataLines) * 64,
	}
	labels := []string{"1", "2", "3-4", "5-8", "9-16", "17-48", "49-128", ">128"}
	for i, n := range s.depHist {
		doc.DepHist = append(doc.DepHist, struct {
			Distance string `json:"distance"`
			Count    int    `json:"count"`
		}{labels[i], n})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func kb(bytes int) string {
	if bytes >= 1<<20 {
		return fmt.Sprintf("%.1fMB", float64(bytes)/(1<<20))
	}
	return fmt.Sprintf("%dKB", bytes>>10)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
