package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"cloudsuite/internal/core"
	"cloudsuite/internal/obs"
	"cloudsuite/internal/sim/bpred"
	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/sim/engine"
	"cloudsuite/internal/sim/tlb"
	"cloudsuite/internal/trace"
)

// probeInsts is how many instructions of a workload's own traffic a
// traced run records for the layer probes.
const probeInsts = 1 << 20

// cost accumulates host time over a count of operations.
type cost struct{ ns, n float64 }

func (c *cost) add(ns float64, n uint64) { c.ns += ns; c.n += float64(n) }
func (c *cost) per() float64             { return ratio(c.ns, c.n) }

func since(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// probes times each simulator layer from outside, through its public
// functions: on traffic recorded from the workload's own generators,
// on synthetic streams served at one cache level each, and on a warm
// image of the workload's machine.
func (c *child) probes() {
	insts, n, reps := probeInsts, 100_000, 5
	if c.cfg.tiny {
		insts, n, reps = 1<<12, 500, 1
	}
	m := c.w.machine
	// Both probe machines place thread i on core i: the first socket's
	// cores for a 4-thread check, every core of the 64-core grid.
	coreOf := make([]int, c.w.threads)
	for i := range coreOf {
		coreOf[i] = i
	}
	bs := benches(c.reqs)
	per := max(insts/(len(bs)*c.w.threads), 2)

	var gen, timed, cycles, warm cost
	var fetch, access, branch, translate cost
	var startS float64
	benchGen, benchStart := map[string]float64{}, map[string]float64{}
	var snap *checkpoint.Snapshot
	for _, b := range bs {
		var t traffic
		c.spans.probe("trace "+b.Name, func() { t = record(b, c.w.threads, c.o.Seed, per) })
		gen.add(t.genNS, t.insts)
		startS += t.startS
		benchGen[b.Name], benchStart[b.Name] = ratio(t.genNS, float64(t.insts)), t.startS

		c.spans.probe("engine timed "+b.Name, func() {
			save := func(s *checkpoint.Snapshot) {
				if snap == nil {
					snap = s
				}
			}
			reg, res, err := engineReplay(m, coreOf, t.slices, int64(per/2), save)
			if c.probeDone(err, "engine replay of %s", b.Name) {
				ns := float64(reg.Histograms["engine.phase.timed_window"].SumNS)
				timed.add(ns, res.Total.Commits())
				cycles.add(ns, res.Total.Cycles)
			}
		})
		c.spans.probe("engine warm "+b.Name, func() {
			reg, _, err := engineReplay(m, coreOf, t.slices, int64(per), nil)
			if c.probeDone(err, "warm-only engine replay of %s", b.Name) {
				warm.add(float64(reg.Histograms["engine.phase.func_warm"].SumNS), t.insts)
			}
		})
		c.spans.probe("cache bpred tlb "+b.Name, func() {
			replayLayers(m.Mem, coreOf, t.slices, &fetch, &access, &branch, &translate)
		})
	}
	c.set("trace.ns_per_inst", "ns", gen.per())
	c.set("workloads.start_s", "s", startS)
	for _, name := range reportedBenches {
		if v, ok := benchGen[name]; ok {
			c.set("trace.ns_per_inst."+slug(name), "ns", v)
			c.set("workloads.start_s."+slug(name), "s", benchStart[name])
		}
	}
	c.set("engine.timed_ns_per_inst", "ns", timed.per())
	c.set("engine.ns_per_sim_cycle", "ns", cycles.per())
	c.set("engine.warm_ns_per_inst", "ns", warm.per())
	c.set("cache.fetch_ns", "ns", fetch.per())
	c.set("cache.replay_ns_per_access", "ns", access.per())
	c.set("bpred.ns_per_branch", "ns", branch.per())
	c.set("tlb.ns_per_translate", "ns", translate.per())

	for _, level := range []string{"l1", "l2", "llc", "dram", "remote"} {
		mem := m.Mem
		if level == "remote" {
			mem = c.w.remote.Mem
		}
		var ns []float64
		var err error
		c.spans.probe("cache "+level, func() { ns, err = probeLevel(level, mem, n, reps) })
		if c.probeDone(err, "cache %s probe", level) {
			c.set("cache.access_ns."+level, "ns", ns...)
		}
	}

	if snap == nil {
		c.problem("no warm image was captured for the checkpoint probe")
		return
	}
	var rates map[string][]float64
	var err error
	c.spans.probe("checkpoint", func() { rates, err = checkpointIO(snap, c.dir, reps) })
	if c.probeDone(err, "checkpoint probe") {
		for name, v := range rates {
			c.set(name, "MB/s", v...)
		}
	}
}

// probeDone counts one probe operation and records its failure; it
// reports whether the probe succeeded.
func (c *child) probeDone(err error, format string, args ...any) bool {
	c.res.Attempted++
	if err != nil {
		c.res.Failed++
		c.problem("%s: %v", fmt.Sprintf(format, args...), err)
	}
	return err == nil
}

// slug turns a benchmark name into a metric-name component.
func slug(name string) string { return strings.ReplaceAll(strings.ToLower(name), " ", "_") }

// traffic is one benchmark's recorded instruction streams, a slice per
// thread, with the host time spent producing them.
type traffic struct {
	slices [][]trace.Inst
	insts  uint64
	startS float64 // Bench.New plus Workload.Start
	genNS  float64 // inside StepGen.Next
}

// record starts b with the given threads and pulls per instructions
// from each generator.
func record(b core.Bench, threads int, seed int64, per int) traffic {
	var t traffic
	for range threads {
		t.slices = append(t.slices, make([]trace.Inst, per))
	}
	start := time.Now()
	gens := b.New().Start(threads, seed)
	t.startS = time.Since(start).Seconds()
	start = time.Now()
	for i, g := range gens {
		n := 0
		for n < per {
			k := g.Next(t.slices[i][n:])
			if k == 0 {
				break
			}
			n += k
		}
		t.slices[i] = t.slices[i][:n]
		t.insts += uint64(n)
	}
	t.genNS = since(start)
	for _, g := range gens {
		g.Close()
	}
	return t
}

// engineReplay runs recorded streams through engine.Run on machine m:
// each thread warms on its first warm instructions and the rest is
// timed. Replaying a slice costs no generation, so the timed phase is
// the engine's own. save, when set, receives the warm image.
func engineReplay(m core.Machine, coreOf []int, slices [][]trace.Inst, warm int64, save func(*checkpoint.Snapshot)) (obs.Snapshot, *engine.Result, error) {
	threads := make([]engine.Thread, len(slices))
	measure := int64(1)
	for i, s := range slices {
		threads[i] = engine.Thread{Gen: &trace.SliceGen{Insts: s}, Core: coreOf[i], Measured: true}
		measure = max(measure, int64(len(s))-warm)
	}
	ob := obs.New()
	ro := ob.StartRun("replay", "")
	res, err := engine.Run(engine.RunConfig{
		Core: m.Core, Mem: m.Mem, WarmupInsts: warm, MeasureInsts: measure,
		MaxCycles: measure * int64(len(slices)) * 40, Checkpoint: save, Obs: ro,
	}, threads)
	ro.Finish()
	return ob.Registry().Snapshot(), res, err
}

// replayLayers feeds recorded streams, interleaved one instruction per
// thread, to the memory system, branch predictor and TLB of a fresh
// machine: instruction-line changes to FetchInstr, loads and stores to
// AccessData and TranslateD, conditional branches to Predict — the
// calls the engine makes for them.
func replayLayers(mem cache.SystemConfig, coreOf []int, slices [][]trace.Inst, fetch, access, branch, translate *cost) {
	type op struct {
		in   *trace.Inst
		core int
	}
	var fetches, data, branches []op
	lastLine := make([]uint64, len(slices))
	for k, more := 0, true; more; k++ {
		more = false
		for i, s := range slices {
			if k >= len(s) {
				continue
			}
			more = true
			o := op{&s[k], coreOf[i]}
			if line := o.in.PC >> cache.LineShift; line != lastLine[i] {
				lastLine[i] = line
				fetches = append(fetches, o)
			}
			switch {
			case o.in.Op.IsMem():
				data = append(data, o)
			case o.in.Op == trace.OpBranch && !o.in.Uncond:
				branches = append(branches, o)
			}
		}
	}
	sys := cache.NewSystem(mem)
	bps := make([]*bpred.Predictor, mem.TotalCores())
	tlbs := make([]*tlb.Hierarchy, mem.TotalCores())
	for _, co := range coreOf {
		bps[co], tlbs[co] = bpred.New(bpred.DefaultConfig()), tlb.NewHierarchy()
	}
	now := int64(0)
	start := time.Now()
	for _, o := range fetches {
		sys.FetchInstr(o.core, o.in.PC, now, o.in.Kernel)
		now += 2
	}
	fetch.add(since(start), uint64(len(fetches)))
	start = time.Now()
	for _, o := range data {
		sys.AccessData(o.core, o.in.Addr, o.in.Op == trace.OpStore, o.in.Kernel, now)
		now += 2
	}
	access.add(since(start), uint64(len(data)))
	start = time.Now()
	for _, o := range branches {
		bps[o.core].Predict(o.in.PC, o.in.Taken, o.in.Target)
	}
	branch.add(since(start), uint64(len(branches)))
	start = time.Now()
	for _, o := range data {
		tlbs[o.core].TranslateD(o.in.Addr)
	}
	translate.add(since(start), uint64(len(data)))
}

// probeLine is the address of line i of a synthetic stream. Lines are 65
// apart: each access opens a new 4KB page, so the stride prefetcher
// never confirms a stream; no line follows its predecessor, so the L1
// next-line streamer stays idle; and successive lines walk every set.
func probeLine(i int) uint64 { return 1<<40 + uint64(i)*65*cache.LineBytes }

// probeLevel times AccessData on a stream built to be served at one
// level of a fresh memory system: reps rounds of n accesses, after a
// priming pass. It returns host ns per access for each round, and an
// error unless the counter deltas show the level served at least 99%
// of the accesses.
func probeLevel(level string, mem cache.SystemConfig, n, reps int) ([]float64, error) {
	sys := cache.NewSystem(mem)
	a, b := 0, mem.CoresPerSocket // b is the first core of socket 1
	i := 0
	var access func()
	switch level {
	case "l1", "l2", "llc":
		// Footprints: within the L1-D; past the L1-D (16 lines per set
		// cycle through its 8 ways) but within the L2; past the L2 but
		// within the LLC, counting the adjacent-line prefetches.
		lines := map[string]int{"l1": 16, "l2": 1024, "llc": 16384}[level]
		access = func() { sys.AccessData(a, probeLine(i%lines), false, false, int64(i)); i++ }
		for i < 2*lines {
			access()
		}
	case "dram":
		// Every line is new, so every access misses the whole hierarchy.
		access = func() { sys.AccessData(a, probeLine(i), false, false, int64(64*i)); i++ }
	case "remote":
		// Cores on two sockets take turns writing the same 64 lines, so
		// each write finds the only copy in the other socket's LLC.
		const lines = 64
		access = func() {
			co := a
			if (i/lines)%2 == 1 {
				co = b
			}
			sys.AccessData(co, probeLine(i%lines), true, false, int64(i))
			i++
		}
		for i < 2*lines {
			access()
		}
	default:
		return nil, fmt.Errorf("unknown level %q", level)
	}
	before := *sys.Ctr(a)
	var remoteBefore uint64
	if level == "remote" {
		remoteBefore = sys.Ctr(b).RemoteSocketHit
	}
	ns := make([]float64, reps)
	for r := range ns {
		start := time.Now()
		for range n {
			access()
		}
		ns[r] = since(start) / float64(n)
	}
	total := uint64(n * reps)
	most := func(x uint64) bool { return x*100 >= total*99 }
	d := sys.Ctr(a).Sub(&before)
	var ok bool
	switch level {
	case "l1":
		ok = d.L1DMiss*100 <= total
	case "l2":
		ok = most(d.L1DMiss) && most(d.L2Hit)
	case "llc":
		ok = most(d.L2DMiss) && most(d.LLCHit)
	case "dram":
		ok = most(d.LLCMiss) && d.DRAMReadLocal+d.DRAMReadRemote >= total && d.RemoteSocketHit == 0
	case "remote":
		ok = most(d.RemoteSocketHit + sys.Ctr(b).RemoteSocketHit - remoteBefore)
	}
	if !ok {
		return nil, fmt.Errorf("the stream was not served at the %s: %d accesses, L1-D misses %d, L2 hits %d, LLC hits %d, LLC misses %d, remote hits %d",
			level, total, d.L1DMiss, d.L2Hit, d.LLCHit, d.LLCMiss, d.RemoteSocketHit)
	}
	return ns, nil
}

// checkpointIO times Encode, Decode, SaveFile and LoadFile on snap, reps
// times each, and checks every round trip returns the same image.
func checkpointIO(snap *checkpoint.Snapshot, dir string, reps int) (map[string][]float64, error) {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return nil, err
	}
	mb := float64(buf.Len()) / 1e6
	path := filepath.Join(dir, "probe.ckpt")
	out := map[string][]float64{}
	rate := func(name string, start time.Time) {
		out[name] = append(out[name], mb/time.Since(start).Seconds())
	}
	for range reps {
		buf.Reset()
		start := time.Now()
		if err := snap.Encode(&buf); err != nil {
			return nil, err
		}
		rate("checkpoint.encode_mb_per_s", start)
		start = time.Now()
		decoded, err := checkpoint.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return nil, err
		}
		rate("checkpoint.decode_mb_per_s", start)
		start = time.Now()
		if err := snap.SaveFile(path); err != nil {
			return nil, err
		}
		rate("checkpoint.savefile_mb_per_s", start)
		start = time.Now()
		loaded, err := checkpoint.LoadFile(path)
		if err != nil {
			return nil, err
		}
		rate("checkpoint.loadfile_mb_per_s", start)
		if decoded.Hash() != snap.Hash() || loaded.Hash() != snap.Hash() {
			return nil, fmt.Errorf("a round trip changed the image")
		}
	}
	return out, nil
}
