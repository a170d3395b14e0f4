package engine

import (
	"slices"
	"testing"

	"cloudsuite/internal/sim/cache"
)

// TestSMTRotationMatchesModuloRule: on a 2-context core of width 1 the
// contexts take turns, so each cycle's commit, issue and fetch serve
// exactly the context the round-robin visits first. Ticked cycles and
// sleeps charging an odd number of skipped cycles interleave; the
// context each stage serves must be the one the rule (count+i) %
// contexts picks, where count is every cycle ticked or charged so far,
// and nextCtx must stay in [0, 2).
func TestSMTRotationMatchesModuloRule(t *testing.T) {
	cfg := RunConfig{Core: DefaultCoreConfig(), Mem: cache.DefaultSystemConfig()}
	cfg.Core.Width = 1
	cfg.Core.ALULatency = 5
	threads := []Thread{{Gen: aluStream(4, 16)}, {Gen: aluStream(4, 16)}}
	co := newCore(0, cfg, threads, []int{0, 1})
	mem := cache.NewSystem(cfg.Mem)

	// Per context: instructions committed, issued and dispatched so far.
	type progress struct{ committed, issued, fetched int }
	progressOf := func(ctx *context) progress {
		p := progress{committed: int(ctx.committed)}
		p.fetched = p.committed + ctx.count
		p.issued = p.committed
		for k := range ctx.count {
			if ctx.window[(ctx.head+k)%len(ctx.window)].status != stWaiting {
				p.issued++
			}
		}
		return p
	}
	// served returns the one context a stage advanced, or -1.
	served := func(before, after [2]progress, stage func(progress) int) int {
		who := -1
		for c := range 2 {
			switch stage(after[c]) - stage(before[c]) {
			case 0:
			case 1:
				if who >= 0 {
					return -1
				}
				who = c
			default:
				return -1
			}
		}
		return who
	}
	snap := func() [2]progress { return [2]progress{progressOf(co.ctxs[0]), progressOf(co.ctxs[1])} }

	// Tick until both contexts run: their first I-TLB and I-cache misses
	// go to memory.
	count, now := 0, int64(0)
	for co.ctxs[0].committed < 16 || co.ctxs[1].committed < 16 {
		if now++; now > 10_000 {
			t.Fatal("contexts never started committing")
		}
		co.cycle(now, mem)
		count++
	}
	// visited returns the context the rule's order from count+i visits
	// first.
	visited := func(i int) int { return (count + i) % 2 }
	both := func(can func(*context) bool) bool { return can(co.ctxs[0]) && can(co.ctxs[1]) }
	contested := map[string]int{}
	for step := range 600 {
		if step%5 == 4 {
			// A sleep over k skipped cycles, as runUntil charges it.
			k := int64(2*(step%11) + 1)
			co.sleeping, co.idle = true, idleCycle{at: now, wake: now + k + 1}
			co.charge(mem.Ctr(co.id), now+k)
			now += k
			count += int(k)
		} else {
			now++
			// Whether both contexts can act in a stage, read before the
			// cycle: a done head; a ready entry; an unblocked fetch with
			// room in the window and the RS (commit and issue only free
			// room). With width 1 the context visited first then takes
			// the stage.
			canCommit := func(c *context) bool {
				h := &c.window[c.head]
				return c.count > 0 && h.status != stWaiting && h.doneAt <= now
			}
			canIssue := func(c *context) bool { return slices.ContainsFunc(c.ready, func(w uint64) bool { return w != 0 }) }
			canFetch := func(c *context) bool {
				return c.fetchBlockedUntil <= now && c.redirectUntil <= now && c.pendingBranch < 0 &&
					c.count < len(c.window) && co.rsUsed < co.cfg.RS
			}
			// commit visits from count; it then advances the pointer, so
			// issue and fetch visit from count+1.
			stages := []struct {
				name    string
				visited int
				both    bool
				of      func(progress) int
			}{
				{"commit", visited(0), both(canCommit), func(p progress) int { return p.committed }},
				{"issue", visited(1), both(canIssue), func(p progress) int { return p.issued }},
				{"fetch", visited(1), both(canFetch), func(p progress) int { return p.fetched }},
			}
			before := snap()
			co.cycle(now, mem)
			after := snap()
			for _, st := range stages {
				if !st.both {
					continue
				}
				contested[st.name]++
				if got := served(before, after, st.of); got != st.visited {
					t.Fatalf("step %d: %s served context %d, want %d", step, st.name, got, st.visited)
				}
			}
			count++
		}
		if co.nextCtx != count%2 {
			t.Fatalf("step %d: nextCtx = %d, want %d (in [0, 2))", step, co.nextCtx, count%2)
		}
	}
	for _, stage := range []string{"commit", "issue", "fetch"} {
		if contested[stage] < 100 {
			t.Errorf("%s: both contexts could act in %d cycles, want at least 100", stage, contested[stage])
		}
	}
}
