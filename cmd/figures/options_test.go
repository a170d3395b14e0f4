package main

import (
	"flag"
	"strings"
	"testing"

	"cloudsuite/internal/core"
)

// parse runs args through figures' flag set and option mapping.
func parse(t *testing.T, args ...string) (core.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	v := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return buildOptions(fs, v)
}

func TestBuildOptionsDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if o != core.DefaultOptions() {
		t.Errorf("defaults mangled: %+v", o)
	}
}

func TestBuildOptionsQuickAndSampling(t *testing.T) {
	o, err := parse(t, "-quick", "-intervals", "16", "-relerr", "0.1")
	if err != nil {
		t.Fatalf("quick+sampling rejected: %v", err)
	}
	if o.WarmupInsts != 200_000 || o.MeasureInsts != 40_000 {
		t.Errorf("quick budgets not applied: warmup=%d measure=%d", o.WarmupInsts, o.MeasureInsts)
	}
	if !o.Sampling.Enabled() || o.Sampling.Intervals != 16 || o.Sampling.TargetRelErr != 0.1 {
		t.Errorf("sampling spec not carried through: %+v", o.Sampling)
	}
}

// TestBuildOptionsRejects: every rejection names the flag that carried
// the bad value, as typed; the judgement itself is core's
// (TestOptionsValidate).
func TestBuildOptionsRejects(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"negative invariants", []string{"-invariants", "-1"}, "-invariants -1: must be >= 0"},
		{"negative parallel", []string{"-parallel", "-2"}, "-parallel -2: must be >= 0"},
		{"negative intervals", []string{"-intervals", "-8"}, "-intervals -8: must be >= 0"},
		{"oversized intervals", []string{"-intervals", "1000001"}, "-intervals 1000001: exceeds the 1000000-interval cap"},
		{"negative relerr", []string{"-relerr", "-0.05"}, "-relerr -0.05: must be >= 0"},
		{"relerr of one", []string{"-relerr", "1"}, "-relerr 1: must be below 1"},
		{"oversized relerr", []string{"-relerr", "3"}, "-relerr 3: must be below 1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parse(t, tt.args...)
			if err == nil {
				t.Fatalf("accepted %q, want error starting %q", tt.args, tt.want)
			}
			if !strings.HasPrefix(err.Error(), tt.want) {
				t.Errorf("error %q does not start with %q", err, tt.want)
			}
		})
	}
}
