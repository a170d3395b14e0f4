package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"cloudsuite/internal/core"
	"cloudsuite/internal/obs"
	"cloudsuite/internal/sim/counters"
)

// result is what a child reports for its workload.
type result struct {
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedFrac  float64          `json:"failed_frac"`
	ClaimsHeld  int              `json:"claims_held,omitempty"`
	ClaimsTotal int              `json:"claims_total,omitempty"`
	Problems    []string         `json:"problems,omitempty"`
	Metrics     map[string]*stat `json:"metrics"`
	// Calibration holds the kernel's times in an untraced run, and
	// HostSpeed is calibRef ÷ their median: the factor the run's
	// timings were scaled by.
	Calibration *stat        `json:"calibration,omitempty"`
	HostSpeed   float64      `json:"host_speed,omitempty"`
	Spans       []traceEvent `json:"spans,omitempty"`
}

// passResult is one pass over a workload's sweep.
type passResult struct {
	wall    time.Duration
	durs    []float64 // seconds per fresh request, from ProgressEvent.Duration
	forks   int       // fresh requests restored from a warm image
	ms      []*core.Measurement
	claims  []core.Claim
	err     error
	reg     obs.Snapshot // traced passes only
	storeMB float64      // image bytes on disk after the pass
}

// child runs one workload in this process.
type child struct {
	cfg      config
	w        *workload
	o        core.Options
	reqs     []request
	dir      string // scratch directory, removed when the child ends
	imgDir   string // forkStore: the images written during set-up
	verify   verifier
	spans    *spanRec
	res      result
	problems map[string]bool
}

func newChild(cfg config, w *workload) (*child, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	c := &child{
		cfg: cfg, w: w, o: w.options(cfg.seed, cfg.tiny), dir: dir,
		verify:   verifier{seen: map[string]string{}},
		spans:    newSpanRec(),
		res:      result{Metrics: map[string]*stat{}},
		problems: map[string]bool{},
	}
	c.reqs = w.requests(c.o)
	if w.store == forkStore {
		c.imgDir = filepath.Join(dir, "images")
	}
	if !cfg.tiny {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		c.verify.golden = g[w.sweep][strconv.FormatInt(cfg.seed, 10)]
	}
	return c, nil
}

// runChild sets the workload up, prints readyLine, and unless setupOnly
// measures it and prints its result as one JSON line.
func runChild(cfg config, w *workload, setupOnly bool, emit func(string)) error {
	calibChain()
	c, err := newChild(cfg, w)
	if err != nil {
		return err
	}
	defer os.RemoveAll(c.dir)

	// Set-up: for forkStore the first pass writes the images, then one
	// untimed warm-up pass lets caches fill and lazy set-up finish.
	if w.store == forkStore {
		c.record(c.pass(0, false), false)
	}
	c.record(c.pass(0, false), false)
	emit(readyLine)
	// Calibrate after set-up, for the parent to scale setup_s, and in an
	// untraced run after every measured pass too.
	calibDiv := 1
	if cfg.tiny {
		calibDiv = 100
	}
	var cals []float64
	for range setupCalibrations {
		cals = append(cals, calibrate(calibDiv))
	}
	emit(calibPrefix + strconv.FormatFloat(newStat("s", cals...).Median, 'g', -1, 64))
	if setupOnly {
		return nil
	}

	// Measured passes, until cfg.seconds have passed. A traced run
	// alternates plain and traced passes, so both see the same host
	// conditions, and runs at least one of each.
	var plain, traced []passResult
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for id := 1; id <= minPasses || time.Since(start).Seconds() < cfg.seconds; id++ {
		tr := cfg.trace && id%2 == 0
		p := c.pass(id, tr)
		c.record(p, true)
		if !cfg.trace {
			cals = append(cals, calibrate(calibDiv))
		}
		switch {
		case p.err != nil:
		case tr:
			traced = append(traced, p)
		default:
			plain = append(plain, p)
		}
	}
	switch {
	case cfg.trace && len(plain) > 0 && len(traced) > 0:
		c.layerMetrics(plain, traced)
		c.probes()
		c.res.Spans = c.spans.events
	case !cfg.trace && len(plain) > 0:
		c.endToEnd(plain, cals)
	}
	c.res.Correct = len(c.res.Problems) == 0 && c.res.Failed == 0
	c.res.FailedFrac = float64(c.res.Failed) / float64(max(c.res.Attempted, 1))
	line, err := jsonLine(c.res)
	if err != nil {
		return err
	}
	emit(line)
	return nil
}

// pass submits the sweep once to a fresh Runner and reads the
// measurements back from its memo cache.
func (c *child) pass(id int, traced bool) passResult {
	var p passResult
	r := core.NewRunner(workers)
	var storeDir string
	switch c.w.store {
	case populateStore:
		storeDir = filepath.Join(c.dir, fmt.Sprintf("pass-%d", id))
		defer os.RemoveAll(storeDir)
	case forkStore:
		storeDir = c.imgDir
	}
	if storeDir != "" {
		cs, err := core.NewCheckpointStore(storeDir)
		if err != nil {
			p.err = err
			return p
		}
		r.SetCheckpoints(cs)
	}
	var ob *obs.Observer
	if traced {
		ob = obs.New()
		r.SetObserver(ob)
	}
	r.SetProgress(func(ev core.ProgressEvent) {
		if ev.Cached {
			return
		}
		p.durs = append(p.durs, ev.Duration.Seconds())
		if ev.Source == "checkpoint-fork" {
			p.forks++
		}
		if traced {
			c.spans.request(id, ev, time.Now())
		}
	})
	start := time.Now()
	p.claims, p.err = c.w.run(r, c.o)
	p.wall = time.Since(start)
	r.SetProgress(nil)
	if traced {
		c.spans.pass(id, start, p.wall)
		p.reg = ob.Registry().Snapshot()
	}
	if p.err != nil {
		return p
	}
	runs := r.Stats().Runs
	if runs != int64(len(c.reqs)) {
		p.err = fmt.Errorf("the sweep ran %d measurements, the benchmark's request list has %d", runs, len(c.reqs))
		return p
	}
	if p.ms, p.err = r.MeasureAll(measureRequests(c.reqs)); p.err == nil && r.Stats().Runs != runs {
		p.err = fmt.Errorf("the benchmark's request list is out of step with the sweep")
	}
	if storeDir != "" {
		p.storeMB = dirMB(storeDir)
	}
	return p
}

// record checks a pass; measured passes count toward attempted and
// failed requests.
func (c *child) record(p passResult, measured bool) {
	n := len(c.reqs)
	if measured {
		c.res.Attempted += n
	}
	if p.err != nil {
		c.problem("pass failed: %v", p.err)
		if measured {
			c.res.Failed += n
		}
		return
	}
	for i, m := range p.ms {
		if why := c.verify.check(c.reqs[i], m); why != "" {
			c.problem("%s", why)
			if measured {
				c.res.Failed++
			}
		}
	}
	if measured && c.w.store == forkStore && p.forks != n {
		c.problem("only %d of %d runs forked from the set-up images", p.forks, n)
	}
	if p.claims != nil {
		// The claims gate only the golden seeds: the model has no
		// reference for others, and a claim's margin can vary with the
		// seed (S4-stalls misses narrowly on sampled seed 4).
		held := 0
		for _, cl := range p.claims {
			if cl.Holds {
				held++
			} else if c.verify.golden != nil {
				c.problem("claim %s does not hold: %s", cl.ID, cl.Detail)
			}
		}
		c.res.ClaimsHeld, c.res.ClaimsTotal = held, len(p.claims)
	}
}

func (c *child) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !c.problems[msg] {
		c.problems[msg] = true
		c.res.Problems = append(c.res.Problems, msg)
	}
}

func (c *child) set(name, unit string, vals ...float64) {
	c.res.Metrics[name] = newStat(unit, vals...)
}

// perPass collects f over completed passes.
func perPass(ps []passResult, f func(p passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func wallS(p passResult) float64 { return p.wall.Seconds() }

// endToEnd sets the metrics a user of the sweep sees from completed
// passes, with their timings scaled to the reference host by the run's
// calibrations. peak_rss_mb and setup_s are measured by the parent.
func (c *child) endToEnd(ps []passResult, cals []float64) {
	c.res.Calibration = newStat("s", cals...)
	speed := calibRef / c.res.Calibration.Median
	c.res.HostSpeed = speed
	scaled := func(f func(p passResult) float64) []float64 {
		return perPass(ps, func(p passResult) float64 { return f(p) * speed })
	}
	c.set("wall_s", "s", scaled(wallS)...)
	// Each pass's median and slowest request, then their medians over
	// the passes: a sweep's requests form a few clusters, and a rank of
	// all samples pooled would sit on the edge of one, moving with
	// single samples.
	c.set("measure_s.p50", "s", scaled(func(p passResult) float64 { return newStat("s", p.durs...).Median })...)
	c.set("measure_s.max", "s", scaled(func(p passResult) float64 { return slices.Max(p.durs) })...)
	c.set("sim_insts_per_s", "1/s", perPass(ps, func(p passResult) float64 {
		return float64(sumCounters(p.ms).Commits()) / (p.wall.Seconds() * speed)
	})...)
}

// phases are the engine's wall-time attribution classes (internal/obs).
var phases = []string{
	"setup", "trace_gen", "func_warm", "detail_warm", "timed_window",
	"sample_interval", "ckpt_save", "ckpt_restore", "ckpt_replay",
}

// layerMetrics sets the per-layer metrics the completed traced passes'
// observers and measurements give, and the tracing overhead against the
// plain passes run alternately with them.
func (c *child) layerMetrics(plain, traced []passResult) {
	sumS := func(s obs.Snapshot, name string) float64 { return float64(s.Histograms[name].SumNS) / 1e9 }
	count := func(s obs.Snapshot, name string) float64 { return float64(s.Counters[name]) }
	for _, ph := range phases {
		c.set("engine.phase."+ph+"_s", "s", perPass(traced, func(p passResult) float64 {
			return sumS(p.reg, "engine.phase."+ph)
		})...)
	}
	c.set("engine.phase.coverage", "ratio", perPass(traced, func(p passResult) float64 {
		var sum float64
		for _, ph := range phases {
			sum += sumS(p.reg, "engine.phase."+ph)
		}
		return ratio(sum, sumS(p.reg, "runner.measure_wall"))
	})...)
	runs := func(s obs.Snapshot) float64 {
		return count(s, "runner.runs.cold") + count(s, "runner.runs.checkpoint_fork")
	}
	layer := map[string]struct {
		unit string
		f    func(p passResult) float64
	}{
		"core.runner.requests": {"count", func(p passResult) float64 { return count(p.reg, "runner.requests") }},
		"core.runner.runs":     {"count", func(p passResult) float64 { return runs(p.reg) }},
		"core.runner.memo_hit_ratio": {"ratio", func(p passResult) float64 {
			return ratio(count(p.reg, "runner.memo_hits"), count(p.reg, "runner.requests"))
		}},
		"core.runner.queue_wait_s": {"s", func(p passResult) float64 {
			h := p.reg.Histograms["runner.queue_wait"]
			return ratio(float64(h.SumNS)/1e9, float64(h.Count))
		}},
		"core.ckpt.fork_ratio": {"ratio", func(p passResult) float64 { return ratio(count(p.reg, "runner.runs.checkpoint_fork"), runs(p.reg)) }},
		"core.ckpt.saves":      {"count", func(p passResult) float64 { return count(p.reg, "ckpt.saves") }},
		"core.ckpt.failures":   {"count", func(p passResult) float64 { return count(p.reg, "ckpt.failures") }},
		"core.ckpt.save_s":     {"s", func(p passResult) float64 { return sumS(p.reg, "ckpt.save_wall") }},
		"core.ckpt.load_s":     {"s", func(p passResult) float64 { return sumS(p.reg, "ckpt.load_wall") }},
		"checkpoint.disk_mb":   {"MB", func(p passResult) float64 { return p.storeMB }},
		"sim.pref_useful_ratio": {"ratio", func(p passResult) float64 {
			t := sumCounters(p.ms)
			return ratio(float64(t.PrefUseful), float64(t.PrefIssued))
		}},
	}
	for name, m := range layer {
		c.set(name, m.unit, perPass(traced, m.f)...)
	}
	for name, f := range simCounts {
		c.set(name, "count", perPass(traced, func(p passResult) float64 {
			return float64(f(sumCounters(p.ms)))
		})...)
	}
	c.set("bench.trace_overhead_frac", "ratio",
		newStat("s", perPass(traced, wallS)...).Median/newStat("s", perPass(plain, wallS)...).Median-1)
}

// simCounts are the simulated event counts reported per traced pass,
// summed over the sweep's measurements. They are deterministic per seed,
// so a change that only speeds the simulator up must leave them alone.
var simCounts = map[string]func(c *counters.Counters) uint64{
	"sim.commits":          (*counters.Counters).Commits,
	"sim.cycles":           func(c *counters.Counters) uint64 { return c.Cycles },
	"sim.l1i_miss":         func(c *counters.Counters) uint64 { return c.L1IMissUser + c.L1IMissOS },
	"sim.l1d_access":       func(c *counters.Counters) uint64 { return c.L1DAccess },
	"sim.l1d_miss":         func(c *counters.Counters) uint64 { return c.L1DMiss },
	"sim.l2_access":        func(c *counters.Counters) uint64 { return c.L2Access },
	"sim.l2_hit":           func(c *counters.Counters) uint64 { return c.L2Hit },
	"sim.llc_access":       func(c *counters.Counters) uint64 { return c.LLCAccess },
	"sim.llc_hit":          func(c *counters.Counters) uint64 { return c.LLCHit },
	"sim.remote_hit":       func(c *counters.Counters) uint64 { return c.RemoteSocketHit },
	"sim.dram_read_local":  func(c *counters.Counters) uint64 { return c.DRAMReadLocal },
	"sim.dram_read_remote": func(c *counters.Counters) uint64 { return c.DRAMReadRemote },
	"sim.branches":         func(c *counters.Counters) uint64 { return c.Branches },
	"sim.mispredicts":      func(c *counters.Counters) uint64 { return c.Mispredicts },
}

func sumCounters(ms []*core.Measurement) *counters.Counters {
	var t counters.Counters
	for _, m := range ms {
		t.Add(&m.Counters)
	}
	return &t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dirMB is the size of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1e6
}
