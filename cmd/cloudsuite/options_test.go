package main

import (
	"flag"
	"strings"
	"testing"

	"cloudsuite/internal/core"
)

// parse runs args through cloudsuite's flag set and option mapping.
func parse(t *testing.T, args ...string) (core.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("cloudsuite", flag.ContinueOnError)
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
	if o.Cores != 4 || o.Sockets != 1 || o.WarmupInsts != 400_000 || o.MeasureInsts != 120_000 || o.Seed != 1 {
		t.Errorf("defaults mangled: %+v", o)
	}
	if o.Sampling.Enabled() {
		t.Errorf("sampling enabled without any sampling flag")
	}
}

func TestBuildOptionsSampling(t *testing.T) {
	o, err := parse(t, "-intervals", "12", "-relerr", "0.05")
	if err != nil {
		t.Fatalf("sampling flags rejected: %v", err)
	}
	if !o.Sampling.Enabled() || o.Sampling.Intervals != 12 || o.Sampling.TargetRelErr != 0.05 {
		t.Errorf("sampling spec not carried through: %+v", o.Sampling)
	}
}

func TestBuildOptionsPollute(t *testing.T) {
	o, err := parse(t, "-pollute", "6")
	if err != nil {
		t.Fatalf("pollute rejected: %v", err)
	}
	if o.PolluteBytes != 6<<20 {
		t.Errorf("PolluteBytes = %d, want %d", o.PolluteBytes, 6<<20)
	}
}

// TestBuildOptionsRejects: every rejection names the flag that carried
// the bad value, as typed. The judgement itself is core's
// (TestOptionsValidate); only -warmup 0 and the -pollute wrap are
// cloudsuite's own.
func TestBuildOptionsRejects(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"negative cores", []string{"-cores", "-1"}, "-cores -1: must be >= 0"},
		{"oversized cores", []string{"-cores", "257"}, "-cores 257: exceeds the 256-core directory limit"},
		{"cores over machine capacity", []string{"-cores", "8"}, "-cores 8: 8 workload cores exceed"},
		{"negative sockets", []string{"-sockets", "-2"}, "-sockets -2: must be >= 0"},
		{"oversized sockets", []string{"-sockets", "257"}, "-sockets 257: exceeds"},
		{"negative cores-per-socket", []string{"-cores-per-socket", "-6"}, "-cores-per-socket -6: must be >= 0"},
		{"oversized cores-per-socket", []string{"-cores-per-socket", "257"}, "-cores-per-socket 257: exceeds"},
		{"grid over directory", []string{"-sockets", "4", "-cores-per-socket", "128"}, "-cores-per-socket 128: cache: 512 cores"},
		{"negative pollute", []string{"-pollute", "-1"}, "-pollute -1: must be between 0 and"},
		{"pollute wraps", []string{"-pollute", "17592186044416"}, "-pollute 17592186044416: must be between 0 and"},
		{"pollute over window", []string{"-pollute", "65537"}, "-pollute 65537: exceeds the"},
		{"zero warmup", []string{"-warmup", "0"}, `-warmup 0: 0 is not "no warm-up"`},
		{"negative warmup", []string{"-warmup", "-1"}, "-warmup -1: must be >= 0"},
		{"oversized warmup", []string{"-warmup", "1000000001"}, "-warmup 1000000001: exceeds the 1000000000 per-thread budget cap"},
		{"negative measure", []string{"-measure", "-120000"}, "-measure -120000: must be >= 0"},
		{"oversized measure", []string{"-measure", "1000000001"}, "-measure 1000000001: exceeds"},
		{"negative invariants", []string{"-invariants", "-1"}, "-invariants -1: must be >= 0"},
		{"negative parallel", []string{"-parallel", "-4"}, "-parallel -4: must be >= 0"},
		{"negative intervals", []string{"-intervals", "-8"}, "-intervals -8: must be >= 0"},
		{"oversized intervals", []string{"-intervals", "1000001"}, "-intervals 1000001: exceeds the 1000000-interval cap"},
		{"negative relerr", []string{"-relerr", "-0.05"}, "-relerr -0.05: must be >= 0"},
		{"relerr of one", []string{"-relerr", "1"}, "-relerr 1: must be below 1"},
		{"oversized relerr", []string{"-relerr", "2.5"}, "-relerr 2.5: must be below 1"},
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
