package main

import (
	"flag"
	"fmt"
	"math"

	"cloudsuite/cmd/internal/cli"
	"cloudsuite/internal/core"
)

// cliFlags holds cloudsuite's flag values.
type cliFlags struct {
	cli.Common
	list, smt, split               bool
	bench                          string
	cores, sockets, cps, polluteMB int
	warmup, measure                int64
}

// defineFlags declares cloudsuite's flags on fs.
func defineFlags(fs *flag.FlagSet) *cliFlags {
	v := &cliFlags{}
	v.Register(fs)
	fs.BoolVar(&v.list, "list", false, "list benchmarks and exit")
	fs.StringVar(&v.bench, "bench", "Web Search", `benchmark name, comma-separated names, or "all"`)
	fs.IntVar(&v.cores, "cores", 4, "workload cores")
	fs.IntVar(&v.sockets, "sockets", 1, "sockets to spread the cores over (NUMA machine; >= 2 implies -split placement)")
	fs.IntVar(&v.cps, "cores-per-socket", 0, "cores per socket (0 = the Table-1 six; larger values scale the chip)")
	fs.BoolVar(&v.smt, "smt", false, "two threads per core")
	fs.BoolVar(&v.split, "split", false, "split cores across two sockets")
	fs.IntVar(&v.polluteMB, "pollute", 0, "LLC MB occupied by polluter threads")
	fs.Int64Var(&v.warmup, "warmup", 400_000, "per-thread warm-up instructions")
	fs.Int64Var(&v.measure, "measure", 120_000, "per-thread measured instructions")
	return v
}

// buildOptions maps the flags onto core.Options and judges them through
// core.Options.Validate. Two checks are cloudsuite's own, because the
// flag spelling cannot survive the mapping: Options reads a zero
// warm-up as the default, and -pollute is scaled from MB to bytes.
func buildOptions(fs *flag.FlagSet, v *cliFlags) (core.Options, error) {
	if v.warmup == 0 {
		return core.Options{}, fmt.Errorf(`-warmup 0: 0 is not "no warm-up"; it would select the default %d-instruction warm-up, so give a positive budget`,
			core.DefaultOptions().WarmupInsts)
	}
	// Negative values convert to huge ones, so one bound catches both.
	if uint64(v.polluteMB) > math.MaxUint64>>20 {
		return core.Options{}, fmt.Errorf("-pollute %d: must be between 0 and %d MB, or the byte count wraps",
			v.polluteMB, uint64(math.MaxUint64>>20))
	}
	o := core.Options{
		Cores: v.cores, Sockets: v.sockets, CoresPerSocket: v.cps,
		SMT: v.smt, SplitSockets: v.split,
		PolluteBytes: uint64(v.polluteMB) << 20,
		WarmupInsts:  v.warmup, MeasureInsts: v.measure,
	}
	v.Apply(&o)
	// flagOf maps each Options field cloudsuite sets to the flag that sets
	// it, so a rejected field is reported under the flag the user typed.
	flagOf := map[string]string{
		"Cores":                 "cores",
		"Sockets":               "sockets",
		"CoresPerSocket":        "cores-per-socket",
		"PolluteBytes":          "pollute",
		"WarmupInsts":           "warmup",
		"MeasureInsts":          "measure",
		"InvariantChecks":       "invariants",
		"Sampling.Intervals":    "intervals",
		"Sampling.TargetRelErr": "relerr",
	}
	return o, v.Check(fs, o, flagOf)
}
