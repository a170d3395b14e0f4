package engine

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"cloudsuite/internal/sim/cache"
	"cloudsuite/internal/trace"
)

// This file holds reference differentials for the cycle loop's
// rewritten helpers: each runs against the plain loop it replaced, on
// random inputs, so the goldens are not their only guard.

// expireRef is the compaction loop expire replaced: it rewrites every
// pending completion time, due or not.
func expireRef(q []int64, now int64) []int64 {
	w := 0
	for _, t := range q {
		if t > now {
			q[w] = t
			w++
		}
	}
	return q[:w]
}

// TestExpireMatchesReference: on random queues, including empty,
// none-due and all-due ones, expire keeps what the compaction loop
// keeps, in order, and hands a queue with nothing due back untouched.
func TestExpireMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 5000; trial++ {
		q := make([]int64, rng.Intn(20), 20)
		now := int64(100)
		for i := range q {
			switch trial % 4 {
			case 0: // none due
				q[i] = now + 1 + rng.Int63n(50)
			case 1: // all due
				q[i] = now - rng.Int63n(50)
			default:
				q[i] = now - 25 + rng.Int63n(50)
			}
		}
		orig := slices.Clone(q)
		got := expire(q, now)
		want := expireRef(slices.Clone(orig), now)
		if !slices.Equal(got, want) {
			t.Fatalf("expire(%v, %d) = %v, reference %v", orig, now, got, want)
		}
		if len(got) == len(orig) && (!slices.Equal(q, orig) || (len(q) > 0 && &got[0] != &q[0])) {
			t.Fatalf("expire(%v, %d) with nothing due rewrote the queue", orig, now)
		}
	}
}

// issueRef is issue as it was before the ready-bitmap scan lost its
// per-cycle segment table: every timer checked, then each context's
// slots [head, len) and [0, head) in turn.
func issueRef(co *core, now int64, mem *cache.System) bool {
	for _, ctx := range co.ctxs {
		ctx.expireTimers(now)
	}
	budget := co.cfg.Width
	for i := 0; i < len(co.ctxs) && budget > 0; i++ {
		ctx := co.rr(i)
		for _, seg := range [2][2]int{{ctx.head, len(ctx.window)}, {0, ctx.head}} {
			for pos := seg[0]; pos < seg[1] && budget > 0; pos++ {
				w := ctx.ready[pos>>6] >> uint(pos&63)
				if w == 0 {
					pos |= 63
					continue
				}
				if pos += bits.TrailingZeros64(w); pos >= seg[1] {
					break
				}
				if co.start(ctx, pos, now, mem) {
					budget--
				}
			}
		}
	}
	return budget < co.cfg.Width
}

// issueSetup builds a one-context core with a full window of rob slots
// behind a random head: a random subset is ready, some waiting entries
// hang on a ready producer's consumer list (so a zero-latency producer
// readies them mid-scan), and a full super queue holds ready loads
// back. The same seed builds the same core. Issue reaches the memory
// system only through loads, which the full super queue holds back, so
// mem is left as it was.
func issueSetup(seed int64, rob, width, aluLat int, mem *cache.System) *core {
	rng := rand.New(rand.NewSource(seed))
	cfg := RunConfig{Core: DefaultCoreConfig()}
	cfg.Core.ROB, cfg.Core.Width, cfg.Core.ALULatency = rob, width, aluLat
	co := newCore(0, cfg, []Thread{{Gen: aluStream(0, 1)}}, []int{0}, mem.Ctr(0))
	for range cfg.Core.MSHRs {
		co.superQ = append(co.superQ, 1<<40)
	}
	ctx := co.ctxs[0]
	ctx.head = rng.Intn(rob)
	ctx.tail, ctx.count = ctx.head, rob
	ops := []trace.Op{trace.OpALU, trace.OpALU, trace.OpMul, trace.OpFP, trace.OpBranch, trace.OpStore, trace.OpLoad}
	var ready []int // program positions of ready entries
	for k := 0; k < rob; k++ {
		slot := (ctx.head + k) % rob
		ctx.window[slot] = entry{op: ops[rng.Intn(len(ops))], addr: 0x1000, waiters: -1, status: stWaiting}
		e := &ctx.window[slot]
		switch {
		case rng.Intn(3) == 0:
			ctx.ready[slot>>6] |= 1 << uint(slot&63)
			ready = append(ready, k)
		case len(ready) > 0 && rng.Intn(2) == 0:
			p := &ctx.window[(ctx.head+ready[rng.Intn(len(ready))])%rob]
			e.next[0] = p.waiters
			p.waiters = int16(slot << 1)
			e.pending = 1
		}
	}
	co.rsUsed = rob
	return co
}

// TestIssueScanMatchesReference: with random ready bitmaps and heads,
// ROB sizes 1 to 255 and, on each window, every width up to 9 and one
// past any ready count, issue starts the same entries as the
// two-segment loop. Matching at every width means it starts them in the
// same order.
func TestIssueScanMatchesReference(t *testing.T) {
	const now = 50
	mem := cache.NewSystem(cache.DefaultSystemConfig())
	for rob := 1; rob <= 255; rob++ {
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 256} {
			seed := int64(rob)
			aluLat := rob % 2 // zero-latency producers ready consumers mid-scan
			got := issueSetup(seed, rob, width, aluLat, mem)
			want := issueSetup(seed, rob, width, aluLat, mem)
			gi, wi := got.issue(now, mem), issueRef(want, now, mem)
			g, w := got.ctxs[0], want.ctxs[0]
			if gi != wi || got.rsUsed != want.rsUsed || g.ready != w.ready || !slices.Equal(g.window, w.window) {
				t.Fatalf("ROB %d, width %d, head %d: issue started other entries than the two-segment scan", rob, width, g.head)
			}
		}
	}
}
