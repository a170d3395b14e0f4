package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"cloudsuite/internal/core"
)

// goldenSeeds are the seeds the digest file covers; 3 is held out from
// tuning.
var goldenSeeds = []int64{1, 2, 3}

// goldenJSON holds the SHA-256 of every measurement's JSON, by sweep,
// seed and request label. -update-golden regenerates it.
//
//go:embed testdata/digests.json
var goldenJSON []byte

// goldenDigests maps sweep -> seed -> request label -> digest.
type goldenDigests map[string]map[string]map[string]string

func loadGolden() (goldenDigests, error) {
	var g goldenDigests
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	return g, nil
}

// digest is the SHA-256 of the measurement's JSON encoding, which holds
// every simulated counter.
func digest(m *core.Measurement) (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// truncated reports whether a timed window of m reached the engine's
// MaxCycles cap, which core.Measure sets to budget x threads x 40 per
// window (or per interval) and which the engine enforces silently.
// The options must spell out Cores and MeasureInsts.
func truncated(o core.Options, m *core.Measurement) bool {
	threads := int64(o.Cores)
	if o.SMT {
		threads *= 2
	}
	if !o.Sampling.Enabled() {
		return m.WindowCycles > o.MeasureInsts*threads*40
	}
	limit := o.Sampling.Normalize(o.MeasureInsts).IntervalInsts * threads * 40
	for _, s := range m.Samples {
		if s.WindowCycles > limit {
			return true
		}
	}
	return false
}

// verifier checks a workload's measurements: each must not be truncated,
// must repeat exactly across passes, and must match the golden digest
// when the seed has one.
type verifier struct {
	golden map[string]string // label -> digest for this seed; nil when none
	seen   map[string]string
}

// check returns why m is wrong, or "" when it is right.
func (v *verifier) check(r request, m *core.Measurement) string {
	if truncated(r.Options, m) {
		return fmt.Sprintf("%s: a timed window reached the MaxCycles cap", r.label)
	}
	d, err := digest(m)
	if err != nil {
		return fmt.Sprintf("%s: %v", r.label, err)
	}
	if first, ok := v.seen[r.label]; ok && first != d {
		return fmt.Sprintf("%s: measurement differs between passes", r.label)
	}
	v.seen[r.label] = d
	if v.golden != nil && v.golden[r.label] != d {
		return fmt.Sprintf("%s: measurement differs from the golden digest", r.label)
	}
	return ""
}

// updateGolden measures every sweep at every golden seed, from cold, and
// writes the digests to path.
func updateGolden(path string, log io.Writer) error {
	g := goldenDigests{}
	for _, w := range workloads() {
		if g[w.sweep] != nil {
			continue // another workload already covers this sweep
		}
		g[w.sweep] = map[string]map[string]string{}
		for _, seed := range goldenSeeds {
			o := w.options(seed, false)
			r := core.NewRunner(workers)
			if _, err := w.run(r, o); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.sweep, seed, err)
			}
			reqs := w.requests(o)
			ms, err := r.MeasureAll(measureRequests(reqs))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.sweep, seed, err)
			}
			byLabel := map[string]string{}
			for i, m := range ms {
				if byLabel[reqs[i].label], err = digest(m); err != nil {
					return err
				}
			}
			g[w.sweep][strconv.FormatInt(seed, 10)] = byLabel
			fmt.Fprintf(log, "simbench: %s seed %d: %d digests\n", w.sweep, seed, len(byLabel))
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measureRequests strips the labels.
func measureRequests(reqs []request) []core.MeasureRequest {
	out := make([]core.MeasureRequest, len(reqs))
	for i, r := range reqs {
		out[i] = r.MeasureRequest
	}
	return out
}
