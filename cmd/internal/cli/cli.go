// Package cli is the setup the cloudsuite and figures commands share:
// the ten flags both declare, their mapping onto core.Options, flag
// errors for the fields core.Options.Validate rejects, and the Runner's
// progress, checkpoint and observability wiring.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"cloudsuite/internal/core"
	"cloudsuite/internal/obs"
)

// Common holds the values of the flags both commands declare.
type Common struct {
	Seed          int64
	Parallel      int
	Progress      bool
	Sample        bool
	Intervals     int
	RelErr        float64
	Invariants    int
	CheckpointDir string
	PprofAddr     string
	ObsOut        string
}

// Register declares the common flags on fs.
func (c *Common) Register(fs *flag.FlagSet) {
	fs.Int64Var(&c.Seed, "seed", 1, "random seed")
	fs.IntVar(&c.Parallel, "parallel", 0, "measurement worker-pool width (0 = GOMAXPROCS)")
	fs.BoolVar(&c.Progress, "progress", false, "report measurement progress and the runner's work accounting on stderr")
	fs.BoolVar(&c.Sample, "sample", false, "SMARTS-style interval sampling instead of one contiguous window")
	fs.IntVar(&c.Intervals, "intervals", 0, "measurement intervals per configuration (0 = default 8; implies -sample)")
	fs.Float64Var(&c.RelErr, "relerr", 0, "adaptive sampling: stop early once the 95% CI of IPC is within this relative error (implies -sample)")
	fs.IntVar(&c.Invariants, "invariants", 0, "check coherence invariants every N memory accesses (0 = off; observer only, output unchanged)")
	fs.StringVar(&c.CheckpointDir, "checkpoint-dir", "", "warm-state checkpoint directory: fork runs from cached warm images and persist new ones")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof and live metrics on this address (e.g. 127.0.0.1:6060)")
	fs.StringVar(&c.ObsOut, "obs-out", "", "write PREFIX.metrics.json and PREFIX.trace.json (Chrome trace_event) on exit")
}

// Apply sets the Options fields the common flags shape: the seed, the
// invariant checks and, when any of -sample, -intervals or -relerr is
// given, the sampling spec.
func (c *Common) Apply(o *core.Options) {
	o.Seed = c.Seed
	o.InvariantChecks = c.Invariants
	if c.Sample || c.Intervals != 0 || c.RelErr != 0 {
		o.Sampling = core.DefaultSampling()
		if c.Intervals != 0 {
			o.Sampling.Intervals = c.Intervals
		}
		o.Sampling.TargetRelErr = c.RelErr
	}
}

// Check judges o through core.Options.Validate and reports a rejected
// field as an error naming its flag — looked up in the command's
// field→flag table — with the value as typed on the command line.
// -parallel is judged here: it sizes the Runner, not a measurement.
func (c *Common) Check(fs *flag.FlagSet, o core.Options, flagOf map[string]string) error {
	if c.Parallel < 0 {
		return fmt.Errorf("-parallel %d: must be >= 0 (0 = GOMAXPROCS)", c.Parallel)
	}
	err := o.Validate()
	if oe := (*core.OptionError)(nil); errors.As(err, &oe) {
		if name, ok := flagOf[oe.Field]; ok {
			return fmt.Errorf("-%s %s: %s", name, fs.Lookup(name).Value, oe.Reason)
		}
	}
	return err
}

// NewRunner builds the Runner the flags describe: -parallel workers,
// -progress lines on stderr, the -checkpoint-dir store, and an observer
// when -pprof or -obs-out arms one, with the -pprof endpoint serving.
// The observer is a pure observer: measured output is byte-identical
// with or without it. A setup failure fails the run.
func (c *Common) NewRunner() *core.Runner {
	r := core.NewRunner(c.Parallel)
	if c.Progress {
		r.SetProgress(progressLine)
	}
	if c.CheckpointDir != "" {
		r.SetCheckpoints(Must(core.NewCheckpointStore(c.CheckpointDir)))
	}
	if c.PprofAddr == "" && c.ObsOut == "" {
		return r
	}
	ob := obs.New()
	r.SetObserver(ob)
	if c.PprofAddr != "" {
		addr := Must(obs.Serve(c.PprofAddr, ob))
		fmt.Fprintf(os.Stderr, "obs: profiling endpoint on http://%s/debug/pprof/ (metrics at /metrics)\n", addr)
	}
	return r
}

// Finish reports on a finished sweep: with -progress, the Runner's work
// accounting and checkpoint activity on stderr (stderr only, so stdout
// stays byte-identical with and without a checkpoint dir); with
// -obs-out, the observer's metrics and trace files. Call it on every
// exit path whose sweep ran, the -check failure exit included.
func (c *Common) Finish(r *core.Runner) {
	if c.Progress {
		reportStats(r)
	}
	if c.ObsOut == "" {
		return
	}
	if err := r.Observer().WriteFiles(c.ObsOut); err != nil {
		Fail(err)
	}
	fmt.Fprintf(os.Stderr, "obs: wrote %s.metrics.json and %s.trace.json\n", c.ObsOut, c.ObsOut)
}

// Fail prints err on stderr and exits 1: the run itself failed.
func Fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Must returns v, or fails the run on err.
func Must[T any](v T, err error) T {
	if err != nil {
		Fail(err)
	}
	return v
}

// Reject prints err on stderr and exits 2, the flag package's code for
// a bad command line: an option was refused before anything ran.
func Reject(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// progressLine renders one in-place progress line on stderr, tagged
// with the request's provenance (memo hit, checkpoint fork, cold run)
// and wall-clock cost when known.
func progressLine(ev core.ProgressEvent) {
	tag := ""
	switch {
	case ev.Source != "":
		tag = fmt.Sprintf(" (%s, %s)", ev.Source, ev.Duration.Round(time.Millisecond))
	case ev.Cached:
		tag = " (cached)"
	}
	fmt.Fprintf(os.Stderr, "\r\033[K%4d/%-4d %s%s", ev.Done, ev.Total, ev.Bench, tag)
	if ev.Done == ev.Total {
		fmt.Fprintln(os.Stderr)
	}
}

// reportStats prints the Runner's work accounting and, when a
// checkpoint store is installed, the warm-image cache activity.
func reportStats(r *core.Runner) {
	s := r.Stats()
	fmt.Fprintf(os.Stderr, "runner: %d measurements requested, %d simulated, %d served from cache, %d insts measured (%d workers)\n",
		s.Requests, s.Runs, s.CacheHits, s.MeasuredInsts, r.Workers())
	cs := r.Checkpoints()
	if cs == nil {
		return
	}
	c := cs.Stats()
	fmt.Fprintf(os.Stderr, "checkpoints: %d requests, %d disk hits, %d saved, %d failures (%s)\n",
		c.Requests, c.DiskHits, c.Saves, c.Failures, cs.Dir())
}
