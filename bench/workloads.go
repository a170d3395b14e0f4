package main

import (
	"fmt"

	"cloudsuite/internal/core"
)

// storeMode says how a workload's passes use the warm-state checkpoint
// store.
type storeMode int

const (
	// noStore: every run warms from cold in memory.
	noStore storeMode = iota
	// populateStore: each pass writes its warm images into a fresh
	// on-disk store that is deleted after the pass.
	populateStore
	// forkStore: set-up writes the images once; each pass opens a fresh
	// store on that directory, so every run restores from disk.
	forkStore
)

// request is one measurement of a sweep, labelled for the digest file.
type request struct {
	label string
	core.MeasureRequest
}

// workload is one sweep the benchmark times. A pass submits the whole
// sweep to a fresh Runner; the request list names the same
// measurements, so that they can be read back from the Runner's memo
// cache for the correctness checks.
type workload struct {
	name string
	// sweep keys the golden digests: workloads with the same sweep must
	// produce byte-identical measurements, however they warm.
	sweep    string
	store    storeMode
	options  func(seed int64, tiny bool) core.Options
	requests func(o core.Options) []request
	// run submits the sweep; it returns the paper's claims when the
	// sweep checks them.
	run func(r *core.Runner, o core.Options) ([]core.Claim, error)
	// machine runs the layer probes; remote is the multi-socket machine
	// of the sweep, for the cross-socket probe. threads is the probes'
	// thread count.
	machine, remote core.Machine
	threads         int
}

// workloads lists the benchmark's workloads in run order.
func workloads() []*workload {
	validate := func(r *core.Runner, o core.Options) ([]core.Claim, error) { return r.Validate(o) }
	check := func(name string, sampled bool, store storeMode) *workload {
		sweep := "check-contig"
		if sampled {
			sweep = "check-sampled"
		}
		return &workload{
			name: name, sweep: sweep, store: store,
			options: func(seed int64, tiny bool) core.Options {
				o := core.DefaultOptions()
				o.Seed = seed
				if tiny {
					o.WarmupInsts, o.MeasureInsts = 500, 600
				}
				if sampled {
					o.Sampling = core.DefaultSampling()
				}
				return o
			},
			requests: checkRequests,
			run:      validate,
			machine:  core.XeonX5670(),
			remote:   core.TwoSocket(),
			threads:  4,
		}
	}
	return []*workload{
		// Why each workload was chosen: BENCHMARK.json and README.md.
		check("check-contig", false, noStore),
		check("check-sampled-populate", true, populateStore),
		check("check-sampled-fork", true, forkStore),
		{
			name:  "scaleup-64",
			sweep: "scaleup-64", store: noStore,
			options: func(seed int64, tiny bool) core.Options {
				o := core.DefaultOptions()
				o.Seed = seed
				o.WarmupInsts, o.MeasureInsts = 20_000, 10_000
				if tiny {
					o.WarmupInsts, o.MeasureInsts = 200, 100
				}
				return o
			},
			requests: scaleupRequests,
			run: func(r *core.Runner, o core.Options) ([]core.Claim, error) {
				_, err := r.ScaleUpStudy(scaleupEntries(), []core.ScalePoint{scaleupPoint}, o)
				return nil, err
			},
			machine: core.ScaledMachine(scaleupPoint.Sockets, scaleupPoint.CoresPerSocket),
			remote:  core.ScaledMachine(scaleupPoint.Sockets, scaleupPoint.CoresPerSocket),
			threads: scaleupPoint.Cores,
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// checkRequests are the unique measurements of core.Runner.Validate.
func checkRequests(o core.Options) []request {
	smt := o
	smt.SMT = true
	polluted := o
	polluted.PolluteBytes = 6 << 20
	split := o
	split.SplitSockets = true
	return []request{
		newRequest("Web Search", "base", o),
		newRequest("Data Serving", "base", o),
		newRequest("Media Streaming", "base", o),
		newRequest("PARSEC (blackscholes)", "base", o),
		newRequest("SPECint (bitops)", "base", o),
		newRequest("Data Serving", "smt", smt),
		newRequest("Web Search", "llc-6MB-polluted", polluted),
		newRequest("MapReduce", "split", split),
		newRequest("TPC-C", "split", split),
	}
}

// scaleupPoint is the 64-core grid of the scale-up study.
var scaleupPoint = core.ScalePoint{Sockets: 4, Cores: 64, CoresPerSocket: 16}

// reportedBenches are measured by every workload, so the per-benchmark
// probe metrics exist on all of them.
var reportedBenches = []string{"Web Search", "Data Serving", "MapReduce", "Media Streaming"}

// scaleupEntries are the scale-out entries of the scale-up workload.
// SAT Solver and Web Frontend are left out: their 64-thread set-up
// would dominate the pass.
func scaleupEntries() []core.Entry {
	var out []core.Entry
	for _, name := range reportedBenches {
		for _, e := range core.ScaleOutEntries() {
			if e.Label == name {
				out = append(out, e)
			}
		}
	}
	return out
}

// scaleupRequests are the measurements ScaleUpStudy makes at
// scaleupPoint, with the options it derives for that point.
func scaleupRequests(o core.Options) []request {
	o.Cores, o.Sockets, o.CoresPerSocket = scaleupPoint.Cores, scaleupPoint.Sockets, scaleupPoint.CoresPerSocket
	o.SplitSockets = true
	var out []request
	for _, name := range reportedBenches {
		out = append(out, newRequest(name, "64-core", o))
	}
	return out
}

func newRequest(bench, variant string, o core.Options) request {
	b, ok := core.FindBench(bench)
	if !ok {
		panic("simbench: unknown benchmark " + bench)
	}
	return request{label: bench + "/" + variant, MeasureRequest: core.MeasureRequest{Bench: b, Options: o}}
}

// benches returns the distinct benchmarks of the requests, in order.
func benches(reqs []request) []core.Bench {
	var out []core.Bench
	seen := map[string]bool{}
	for _, r := range reqs {
		if !seen[r.Bench.Name] {
			seen[r.Bench.Name] = true
			out = append(out, r.Bench)
		}
	}
	return out
}
