package core

import (
	"strings"
	"testing"

	"cloudsuite/internal/workloads"
)

// fastOptions returns a small-budget configuration for tests.
func fastOptions() Options {
	return Options{Cores: 2, WarmupInsts: 40_000, MeasureInsts: 15_000, Seed: 1}
}

func TestXeonX5670MatchesTable1(t *testing.T) {
	m := XeonX5670()
	if m.Core.Width != 4 || m.Core.ROB != 128 || m.Core.RS != 36 {
		t.Errorf("core config deviates from Table 1: %+v", m.Core)
	}
	if m.Core.LoadQ != 48 || m.Core.StoreQ != 32 {
		t.Errorf("LSQ deviates from Table 1: %d/%d", m.Core.LoadQ, m.Core.StoreQ)
	}
	if m.Mem.L1I.SizeBytes != 32<<10 || m.Mem.L2.SizeBytes != 256<<10 || m.Mem.LLC.SizeBytes != 12<<20 {
		t.Errorf("cache sizes deviate from Table 1")
	}
	if m.Mem.LLC.LatencyCycles != 29 {
		t.Errorf("LLC latency %d, want 29", m.Mem.LLC.LatencyCycles)
	}
	if m.Mem.DRAM.Channels != 3 {
		t.Errorf("DRAM channels %d, want 3", m.Mem.DRAM.Channels)
	}
	if m.Mem.CoresPerSocket != 6 {
		t.Errorf("cores per socket %d, want 6", m.Mem.CoresPerSocket)
	}
}

func TestTable1Rendering(t *testing.T) {
	rows := Table1(XeonX5670())
	if len(rows) != 10 {
		t.Fatalf("Table 1 has %d rows, want 10", len(rows))
	}
	joined := ""
	for _, r := range rows {
		joined += r.Parameter + "=" + r.Value + ";"
	}
	for _, want := range []string{"128 entries", "48/32 entries", "36 entries", "12MB", "32KB", "256KB"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTwoSocketConfig(t *testing.T) {
	m := TwoSocket()
	if m.Mem.Sockets != 2 {
		t.Fatalf("sockets = %d", m.Mem.Sockets)
	}
}

func TestSuiteComposition(t *testing.T) {
	so := ScaleOut()
	if len(so) != 6 {
		t.Fatalf("scale-out suite has %d members, want 6", len(so))
	}
	names := map[string]bool{}
	for _, b := range AllBenches() {
		if names[b.Name] {
			t.Errorf("duplicate bench %q", b.Name)
		}
		names[b.Name] = true
	}
	for _, want := range []string{"Data Serving", "MapReduce", "Media Streaming",
		"SAT Solver", "Web Frontend", "Web Search", "SPECweb09", "TPC-C", "TPC-E", "Web Backend"} {
		if !names[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

func TestFigureEntriesCoverAllClasses(t *testing.T) {
	entries := FigureEntries()
	if len(entries) != 14 {
		t.Fatalf("figure entries = %d, want 14", len(entries))
	}
	classes := map[workloads.Class]bool{}
	for _, e := range entries {
		for _, b := range e.Members {
			classes[b.Class] = true
		}
		if len(e.Members) == 0 {
			t.Errorf("entry %q has no members", e.Label)
		}
	}
	for _, c := range []workloads.Class{workloads.ScaleOut, workloads.Desktop, workloads.Parallel, workloads.Server} {
		if !classes[c] {
			t.Errorf("no entry of class %v", c)
		}
	}
}

func TestFindBench(t *testing.T) {
	if _, ok := FindBench("Web Search"); !ok {
		t.Fatal("Web Search not found")
	}
	if _, ok := FindBench("nope"); ok {
		t.Fatal("nonexistent bench found")
	}
}

func TestMeasureProducesPlausibleCounters(t *testing.T) {
	b, _ := FindBench("Web Search")
	m, err := MeasureBench(b, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if m.Commits() < 25_000 {
		t.Fatalf("committed only %d instructions", m.Commits())
	}
	if ipc := m.IPC(); ipc <= 0.05 || ipc > 4 {
		t.Fatalf("IPC %f out of range", ipc)
	}
	if m.StallFrac() <= 0 || m.StallFrac() >= 1 {
		t.Fatalf("stall fraction %f out of range", m.StallFrac())
	}
	if m.CommitOS == 0 {
		t.Fatal("no OS instructions measured for a network workload")
	}
}

func TestMeasureIsStableAcrossRuns(t *testing.T) {
	// Every workload thread steps on the one simulation goroutine from
	// per-thread seeded streams, so two runs of the same options are
	// bit-identical, down to every field of the Measurement.
	b, _ := FindBench("Data Serving")
	o := fastOptions()
	a, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if ja, jc := mustJSON(t, a), mustJSON(t, c); ja != jc {
		t.Fatalf("two runs of the same options differ:\n%s\n%s", ja, jc)
	}
}

func TestSMTOptionRunsTwoThreadsPerCore(t *testing.T) {
	b, _ := FindBench("SAT Solver")
	o := fastOptions()
	base, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	o.SMT = true
	smt, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if smt.IPC() <= base.IPC() {
		t.Fatalf("SMT gave no IPC benefit: %.2f vs %.2f", smt.IPC(), base.IPC())
	}
}

func TestPolluterReducesUserIPCOfCacheSensitiveWorkload(t *testing.T) {
	b, _ := FindBench("SPECint (mcf)")
	o := fastOptions()
	base, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	o.PolluteBytes = 8 << 20 // take 8MB of the 12MB LLC
	pol, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if pol.UserIPC() >= base.UserIPC() {
		t.Fatalf("polluters did not hurt mcf: %.3f vs %.3f", pol.UserIPC(), base.UserIPC())
	}
}

func TestSplitSocketsExposesRemoteHits(t *testing.T) {
	b, _ := FindBench("TPC-C")
	o := fastOptions()
	o.Cores = 2
	o.SplitSockets = true
	m, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.RemoteSocketHit == 0 {
		t.Fatal("no remote-socket hits in a split-socket OLTP run")
	}
	if m.SharedRWHitUser == 0 {
		t.Fatal("no application read-write sharing for TPC-C")
	}
}

func TestPollutersRequireSpareCores(t *testing.T) {
	b, _ := FindBench("Web Search")
	o := fastOptions()
	o.Cores = 6 // uses the whole socket
	o.PolluteBytes = 4 << 20
	if _, err := MeasureBench(b, o); err == nil {
		t.Fatal("expected error when no spare cores exist for polluters")
	}
}

func TestEntryStat(t *testing.T) {
	r := &EntryResult{Measurements: []*Measurement{
		{BenchName: "a"}, {BenchName: "b"}, {BenchName: "c"},
	}}
	vals := map[string]float64{"a": 1, "b": 3, "c": 2}
	mean, lo, hi := r.MeanMinMax(func(m *Measurement) float64 { return vals[m.BenchName] })
	if mean != 2 || lo != 1 || hi != 3 {
		t.Fatalf("stat = %f/%f/%f", mean, lo, hi)
	}
}

func TestScaleOutProcessorConfig(t *testing.T) {
	m := ScaleOutProcessor()
	x := XeonX5670()
	if m.Core.Width >= x.Core.Width {
		t.Error("optimized core should be narrower")
	}
	if m.Mem.LLC.SizeBytes >= x.Mem.LLC.SizeBytes {
		t.Error("optimized LLC should be smaller")
	}
	if m.Mem.CoresPerSocket <= x.Mem.CoresPerSocket {
		t.Error("optimized chip should host more cores")
	}
	if m.Mem.DRAM.Channels >= x.Mem.DRAM.Channels {
		t.Error("optimized chip should scale back memory channels")
	}
	if AreaUnits(m) > AreaUnits(x)*1.2 {
		t.Errorf("optimized chip area %.1f should not exceed conventional %.1f",
			AreaUnits(m), AreaUnits(x))
	}
}

func TestImplicationsDensityGain(t *testing.T) {
	// The headline implication: the scale-out-optimized design delivers
	// higher computational density on a scale-out workload.
	e := ScaleOutEntries()[5] // Web Search
	o := fastOptions()
	rows, err := NewRunner(1).Implications([]Entry{e}, o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.OptDensity <= r.ConvDensity {
		t.Fatalf("density did not improve: conv %.3f vs opt %.3f", r.ConvDensity, r.OptDensity)
	}
	if r.OptChipThroughput <= r.ConvChipThroughput {
		t.Fatalf("chip throughput did not improve: %.2f vs %.2f",
			r.ConvChipThroughput, r.OptChipThroughput)
	}
}

func TestInstructionPrefetchStudyDirections(t *testing.T) {
	// Stream prefetching must beat no prefetching for an I-bound
	// scale-out workload; next-line sits in between (Section 4.1).
	e := ScaleOutEntries()[0] // Data Serving
	o := fastOptions()
	rows, err := NewRunner(1).InstructionPrefetchStudy([]Entry{e}, o)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MPKIStream >= r.MPKINone {
		t.Fatalf("stream prefetcher did not reduce I-misses: %.1f vs %.1f",
			r.MPKIStream, r.MPKINone)
	}
	if r.MPKINextLine >= r.MPKINone {
		t.Fatalf("next-line prefetcher did not reduce I-misses: %.1f vs %.1f",
			r.MPKINextLine, r.MPKINone)
	}
	if r.IPCStream <= r.IPCNone {
		t.Fatalf("stream prefetcher did not help IPC: %.2f vs %.2f", r.IPCStream, r.IPCNone)
	}
}

func TestValidateClaimsHold(t *testing.T) {
	o := fastOptions()
	claims, err := NewRunner(1).Validate(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 7 {
		t.Fatalf("only %d claims checked", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("claim %s fails: %s (%s)", c.ID, c.Statement, c.Detail)
		}
	}
	if !AllHold(claims) {
		t.Error("AllHold disagrees with individual verdicts")
	}
}

func TestImplicationsEnergyEfficiency(t *testing.T) {
	// The optimized design must also win on the paper's per-operation
	// energy metric, not just density.
	e := ScaleOutEntries()[0] // Data Serving
	rows, err := NewRunner(1).Implications([]Entry{e}, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ConvPJPerInstr <= 0 || r.OptPJPerInstr <= 0 {
		t.Fatalf("energy metrics missing: %+v", r)
	}
	if r.OptPJPerInstr >= r.ConvPJPerInstr {
		t.Fatalf("optimized design spends more energy per op: %.1f vs %.1f pJ",
			r.OptPJPerInstr, r.ConvPJPerInstr)
	}
}
