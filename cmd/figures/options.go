package main

import (
	"flag"

	"cloudsuite/cmd/internal/cli"
	"cloudsuite/internal/core"
)

// cliFlags holds figures' flag values.
type cliFlags struct {
	cli.Common
	only, fig             string
	quick, check, jsonOut bool
}

// defineFlags declares figures' flags on fs.
func defineFlags(fs *flag.FlagSet) *cliFlags {
	v := &cliFlags{}
	v.Register(fs)
	fs.StringVar(&v.only, "only", "", "comma-separated figure numbers (default: all, 0 = Table 1, i = implications)")
	fs.StringVar(&v.fig, "fig", "", `comma-separated named experiments ("scaling" = NUMA scale-up study)`)
	fs.BoolVar(&v.quick, "quick", false, "reduced instruction budgets")
	fs.BoolVar(&v.check, "check", false, "validate the paper's claims and exit")
	fs.BoolVar(&v.jsonOut, "json", false, "machine-readable JSON output (per-figure rows + runner stats)")
	return v
}

// buildOptions maps the flags onto the core.Options every selected
// figure runs with and judges them through core.Options.Validate.
func buildOptions(fs *flag.FlagSet, v *cliFlags) (core.Options, error) {
	o := core.DefaultOptions()
	if v.quick {
		// Quick warming still has to cover a useful fraction of the
		// largest workload's working set (Data Serving: 128MB), or the
		// measured window sits on a cold-miss transient and claim
		// margins evaporate.
		o.WarmupInsts, o.MeasureInsts = 200_000, 40_000
	}
	v.Apply(&o)
	// flagOf maps each Options field figures sets to the flag that sets it,
	// so a rejected field is reported under the flag the user typed.
	flagOf := map[string]string{
		"InvariantChecks":       "invariants",
		"Sampling.Intervals":    "intervals",
		"Sampling.TargetRelErr": "relerr",
	}
	return o, v.Check(fs, o, flagOf)
}
