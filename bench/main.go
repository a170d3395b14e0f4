// Command simbench is the repository's benchmark. It times the paper's
// reproduction sweeps end to end — the claim check, contiguous, sampled
// from cold and sampled from checkpoints, and the 64-core scale-up
// point — and, in a separate traced run, attributes the time to the
// simulator's layers. It checks every measurement against golden
// digests and the paper's claims, and exits non-zero when a check
// fails. See README.md.
//
// Each workload runs in child processes of its own: the setup_s and
// peak_rss_mb of one workload cannot leak into another.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// workers is every pass's Runner pool width.
	workers = 2
	// setupRuns is how many children time a workload's set-up; setup_s
	// is their median.
	setupRuns = 3
	// childEnv is set in every child's environment; the test binary
	// uses it to run as one.
	childEnv = "SIMBENCH_CHILD"
	// readyLine is what a child prints once its set-up is done.
	readyLine = "simbench: set-up done"
	// calibPrefix starts the line on which a child then reports the
	// median of setupCalibrations kernel times, in seconds.
	calibPrefix       = "simbench: calibration "
	setupCalibrations = 3
	// goldenPath is where -update-golden writes, relative to the
	// repository root.
	goldenPath = "bench/testdata/digests.json"
)

// config is one invocation's settings, shared by parent and children.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceN int
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workloads' request streams and datasets")
	fs.Float64Var(&cfg.seconds, "seconds", 18, "measured seconds per workload: passes start until this much time has passed")
	fs.IntVar(&traceN, "trace", 0, "1: traced run; report the per-layer metrics and write DIR/spans.trace.json")
	fs.BoolVar(&cfg.tiny, "tiny", false, "smoke-test budgets: tiny instruction counts, no golden-digest or claim checks")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory `DIR` for results.json, spans.trace.json and scratch images")
	compare := fs.Bool("compare", false, "compare two results files, with the bounds in BENCHMARK.json: -compare BASE NEW")
	update := fs.Bool("update-golden", false, "regenerate "+goldenPath+" for seeds 1-3 and exit")
	child := fs.String("child", "", "internal: run this workload in this process")
	setupOnly := fs.Bool("setup-only", false, "internal: with -child, stop once set-up is done")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "simbench:", msg)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return usage("-compare takes two results files")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *update:
		if err := updateGolden(goldenPath, stderr); err != nil {
			return fail(err)
		}
		return 0
	case fs.NArg() > 0:
		return usage("unexpected arguments " + strings.Join(fs.Args(), " "))
	case traceN != 0 && traceN != 1:
		return usage("-trace takes 0 or 1")
	case cfg.seconds <= 0:
		return usage("-seconds must be positive")
	}
	cfg.trace = traceN == 1
	if *child != "" {
		w, err := findWorkload(*child)
		if err != nil {
			return fail(err)
		}
		if err := runChild(cfg, w, *setupOnly, func(line string) { fmt.Fprintln(stdout, line) }); err != nil {
			return fail(err)
		}
		return 0
	}
	return runParent(cfg, stdout, stderr)
}

// results is the results.json document.
type results struct {
	Stamp     stamp              `json:"stamp"`
	Workloads map[string]*result `json:"workloads"`
}

// stamp records what produced a results file.
type stamp struct {
	Commit  string  `json:"commit"`
	Go      string  `json:"go"`
	NProc   int     `json:"nproc"`
	CPU     string  `json:"cpu"`
	Date    string  `json:"date"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	Tiny    bool    `json:"tiny,omitempty"`
}

func newStamp(cfg config) stamp {
	s := stamp{
		Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: "unknown",
		Date: time.Now().UTC().Format(time.RFC3339),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Tiny: cfg.tiny,
	}
	// Outside a git work tree (a plain checkout) the commit stays unknown.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(rev))
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			s.Commit += "-dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// runParent measures each selected workload in child processes, prints
// every metric as "workload metric value unit", writes DIR/results.json
// (and DIR/spans.trace.json when traced), and ends with one JSON line
// summing the run up.
func runParent(cfg config, stdout, stderr io.Writer) int {
	ws := workloads()
	if cfg.workload != "" {
		w, err := findWorkload(cfg.workload)
		if err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	doc := results{Stamp: newStamp(cfg), Workloads: map[string]*result{}}
	sum := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	var names []string
	var spans [][]traceEvent
	for _, w := range ws {
		r, err := measure(cfg, w, stderr)
		if err != nil {
			r = &result{Problems: []string{err.Error()}, Metrics: map[string]*stat{}}
		}
		names, spans = append(names, w.name), append(spans, r.Spans)
		r.Spans = nil
		doc.Workloads[w.name] = r
		printResult(stdout, stderr, w.name, r)
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, s := range r.Metrics {
			if len(ws) > 1 {
				name = w.name + "/" + name
			}
			sum.Metrics[name] = valueUnit{s.Median, s.Unit}
		}
	}
	err := writeJSON(filepath.Join(cfg.out, "results.json"), doc)
	if err == nil && cfg.trace {
		err = writeSpans(filepath.Join(cfg.out, "spans.trace.json"), names, spans)
	}
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	line, err := jsonLine(sum)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !sum.Correct {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs w's children: in an untraced run, setupRuns-1 that only
// set up and then the one that also measures, each timed from start to
// readyLine; in a traced run just the measuring one.
func measure(cfg config, w *workload, stderr io.Writer) (*result, error) {
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-out", cfg.out}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	var setups []float64
	if !cfg.trace {
		for range setupRuns - 1 {
			ch, err := spawn(append(args, "-setup-only"), stderr)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ch.scaledSetup())
		}
	}
	ch, err := spawn(args, stderr)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal([]byte(ch.last), &r); err != nil {
		return nil, fmt.Errorf("%s: reading the child's result: %w", w.name, err)
	}
	if !cfg.trace {
		r.Metrics["setup_s"] = newStat("s", append(setups, ch.scaledSetup())...)
		r.Metrics["peak_rss_mb"] = newStat("MB", ch.rssMB)
	}
	return &r, nil
}

// childRun is what the parent reads from a workload child.
type childRun struct {
	setupS float64 // seconds from start to the child's readyLine
	calib  float64 // the child's calibration right after set-up, s
	last   string  // the child's last output line
	rssMB  float64 // the child's peak RSS
}

// scaledSetup is the child's set-up time scaled to the reference host by
// the calibration the child ran right after it.
func (ch childRun) scaledSetup() float64 { return ch.setupS * calibRef / ch.calib }

// spawn runs this program as a workload child and waits for it.
func spawn(args []string, stderr io.Writer) (childRun, error) {
	var ch childRun
	exe, err := os.Executable()
	if err != nil {
		return ch, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	// The kernel kills the child if this process dies first, so an
	// interrupted run leaves no simulation behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return ch, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return ch, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<28)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine && ch.setupS == 0:
			ch.setupS = time.Since(start).Seconds()
		case strings.HasPrefix(line, calibPrefix) && ch.calib == 0:
			ch.calib, _ = strconv.ParseFloat(strings.TrimPrefix(line, calibPrefix), 64)
		default:
			ch.last = line
		}
	}
	scanErr := sc.Err()
	io.Copy(io.Discard, out) // after a scan error, let the child finish writing
	if err := cmd.Wait(); err != nil {
		return ch, fmt.Errorf("workload child %s: %w", strings.Join(args[:2], " "), err)
	}
	if scanErr != nil {
		return ch, fmt.Errorf("reading workload child %s: %w", args[1], scanErr)
	}
	if ch.setupS == 0 || ch.calib <= 0 {
		return ch, fmt.Errorf("workload child %s never reported its set-up and calibration", args[1])
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ch.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is the child's VmHWM in KiB
	}
	return ch, nil
}

// printResult prints r's metrics in name order, then its checks.
func printResult(stdout, stderr io.Writer, name string, r *result) {
	for _, k := range sortedKeys(r.Metrics) {
		s := r.Metrics[k]
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, k, strconv.FormatFloat(s.Median, 'g', -1, 64), s.Unit)
	}
	fmt.Fprintf(stdout, "%s: %d of %d operations failed", name, r.Failed, r.Attempted)
	if r.ClaimsTotal > 0 {
		fmt.Fprintf(stdout, "; %d of %d claims hold", r.ClaimsHeld, r.ClaimsTotal)
	}
	if r.HostSpeed > 0 {
		fmt.Fprintf(stdout, "; host speed %.3f of the reference", r.HostSpeed)
	}
	fmt.Fprintln(stdout)
	for _, p := range r.Problems {
		fmt.Fprintf(stderr, "simbench: %s: %s\n", name, p)
	}
}

func jsonLine(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
