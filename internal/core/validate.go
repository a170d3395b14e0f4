package core

import "fmt"

// Claim is one of the paper's qualitative findings, checked against
// fresh measurements. Claims are the reproduction contract: absolute
// counter values depend on dataset scaling, but these directional
// statements must hold for the reproduction to be meaningful.
type Claim struct {
	// ID names the claim (section reference).
	ID string
	// Statement is the paper's finding in one sentence.
	Statement string
	// Holds reports whether the measurement supports the claim.
	Holds bool
	// Detail carries the measured numbers behind the verdict.
	Detail string
}

// Validate measures a minimal set of workloads and checks the paper's
// headline claims. It is the programmatic counterpart of the
// integration test suite, usable from tools and CI. The full
// measurement set is enumerated up front and submitted as one batch,
// so the runner's pool and cache apply (several configurations are
// shared with the figure drivers).
func (r *Runner) Validate(o Options) ([]Claim, error) {
	var claims []Claim
	add := func(id, statement string, holds bool, detail string, args ...any) {
		claims = append(claims, Claim{
			ID: id, Statement: statement, Holds: holds,
			Detail: fmt.Sprintf(detail, args...),
		})
	}

	// The configuration variants the claims compare.
	oSMT := o
	oSMT.SMT = true
	oPol := o
	if o.Cores < 4 {
		oPol.Cores = 4
	}
	oPol6 := oPol
	oPol6.PolluteBytes = 6 << 20
	oSplit := o
	oSplit.SplitSockets = true

	reqs := []MeasureRequest{
		{mustBench("Web Search"), o},
		{mustBench("Data Serving"), o},
		{mustBench("Media Streaming"), o},
		{mustBench("PARSEC (blackscholes)"), o},
		{mustBench("SPECint (bitops)"), o},
		{mustBench("Data Serving"), oSMT},
		{mustBench("Web Search"), oPol},
		{mustBench("Web Search"), oPol6},
		{mustBench("MapReduce"), oSplit},
		{mustBench("TPC-C"), oSplit},
	}
	ms0, err := r.MeasureAll(reqs)
	if err != nil {
		return nil, err
	}
	ws, ds, ms, bs, bit := ms0[0], ms0[1], ms0[2], ms0[3], ms0[4]
	dsSMT, wsBase, wsPol := ms0[5], ms0[6], ms0[7]
	mr, tpcc := ms0[8], ms0[9]

	// Section 4 / Figure 1.
	add("S4-stalls",
		"Scale-out workloads stall the majority of cycles, mostly on memory",
		ws.StallFrac() > 0.45 && ws.MemCycleFrac() > 0.4 && bs.StallFrac() < 0.5,
		"Web Search stall %.0f%% mem %.0f%%; blackscholes stall %.0f%%",
		100*ws.StallFrac(), 100*ws.MemCycleFrac(), 100*bs.StallFrac())

	// Section 4.1 / Figure 2.
	add("S4.1-icache",
		"Scale-out instruction working sets far exceed the L1-I, unlike desktop/parallel code",
		ws.L1IMPKIUser() > 10 && bs.L1IMPKIUser() < 2,
		"Web Search L1-I MPKI %.1f vs blackscholes %.1f",
		ws.L1IMPKIUser(), bs.L1IMPKIUser())

	// Section 4.2 / Figure 3.
	add("S4.2-ilp",
		"Scale-out IPC is modest on a 4-wide core; cpu-intensive suites reach high IPC",
		ws.IPC() < 1.6 && bit.IPC() > 1.8,
		"Web Search IPC %.2f vs SPECint bitops %.2f", ws.IPC(), bit.IPC())
	add("S4.2-mlp",
		"Scale-out MLP is low despite 48-entry load queues",
		ds.MLP() < 3.2 && ws.MLP() < 3.2,
		"Data Serving MLP %.2f, Web Search MLP %.2f", ds.MLP(), ws.MLP())

	add("S4.2-smt",
		"SMT yields large gains for independent-request scale-out workloads",
		dsSMT.IPC() > ds.IPC()*1.25,
		"Data Serving IPC %.2f -> %.2f with SMT", ds.IPC(), dsSMT.IPC())

	// Section 4.3 / Figure 4.
	retention := wsPol.UserIPC() / wsBase.UserIPC()
	add("S4.3-llc",
		"Scale-out performance is insensitive to LLC capacity above a few megabytes",
		retention > 0.75,
		"Web Search retains %.0f%% of user-IPC at 6MB effective LLC", 100*retention)

	// Section 4.4 / Figures 6 and 7.
	add("S4.4-sharing",
		"Scale-out applications share almost no read-write data; OLTP shares actively",
		mr.SharedRWFracUser() < 0.01 && tpcc.SharedRWFracUser() > mr.SharedRWFracUser(),
		"MapReduce app sharing %.2f%% vs TPC-C %.2f%%",
		100*mr.SharedRWFracUser(), 100*tpcc.SharedRWFracUser())
	add("S4.4-bandwidth",
		"Off-chip bandwidth is over-provisioned; Media Streaming is among the heaviest scale-out consumers",
		ms.DRAMUtilization() >= 0.85*ws.DRAMUtilization() &&
			ms.DRAMUtilization() >= 0.85*ds.DRAMUtilization() && ds.DRAMUtilization() < 0.4,
		"Streaming %.0f%%, Web Search %.0f%%, Data Serving %.0f%% utilization",
		100*ms.DRAMUtilization(), 100*ws.DRAMUtilization(), 100*ds.DRAMUtilization())

	return claims, nil
}

// AllHold reports whether every claim holds.
func AllHold(claims []Claim) bool {
	for _, c := range claims {
		if !c.Holds {
			return false
		}
	}
	return true
}
