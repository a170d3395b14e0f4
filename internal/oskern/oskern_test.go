package oskern

import (
	"testing"

	"cloudsuite/internal/addrspace"
	"cloudsuite/internal/sim/checkpoint"
	"cloudsuite/internal/trace"
)

// runKernel drains n instructions from a body that uses the kernel.
func runKernel(t *testing.T, n int, body func(k *Kernel, e *trace.Emitter)) []trace.Inst {
	t.Helper()
	k := New(DefaultConfig())
	ul := trace.NewCodeLayout(addrspace.UserCodeBase, 1<<20)
	main := ul.Func("main", 64)
	started := false
	g := trace.NewStepGen(trace.EmitterConfig{Seed: 1}, trace.ProgFunc(func(e *trace.Emitter) bool {
		if !started {
			e.Call(main)
			started = true
		}
		body(k, e)
		return true
	}))
	defer g.Close()
	out := make([]trace.Inst, n)
	got := 0
	for got < n {
		m := g.Next(out[got:])
		if m == 0 {
			break
		}
		got += m
	}
	return out[:got]
}

func kernelShare(insts []trace.Inst) float64 {
	k := 0
	for _, in := range insts {
		if in.Kernel {
			k++
		}
	}
	return float64(k) / float64(len(insts))
}

func TestSendEmitsKernelInstructions(t *testing.T) {
	var conn *Conn
	insts := runKernel(t, 20000, func(k *Kernel, e *trace.Emitter) {
		if conn == nil {
			conn = k.OpenConnOn(0)
		}
		k.Send(e, conn, 0x4000_0000, 1460)
	})
	if s := kernelShare(insts); s < 0.95 {
		t.Fatalf("send loop kernel share %.2f, want ~1", s)
	}
	for i, in := range insts {
		if in.Kernel && in.Op != trace.OpBranch && in.PC < addrspace.KernelCodeBase {
			t.Fatalf("inst %d: kernel inst with user PC %#x", i, in.PC)
		}
	}
}

func TestSendSegmentsBySize(t *testing.T) {
	count := func(bytes int) int {
		var conn *Conn
		insts := runKernel(t, 30000, func(k *Kernel, e *trace.Emitter) {
			if conn == nil {
				conn = k.OpenConnOn(0)
			}
			k.Send(e, conn, 0x4000_0000, bytes)
		})
		stores := 0
		for _, in := range insts {
			if in.Op == trace.OpStore {
				stores++
			}
		}
		return stores
	}
	small, big := count(100), count(8*1460)
	if big < small*3 {
		t.Fatalf("large sends should store far more: small=%d big=%d", small, big)
	}
}

func TestRecvTouchesUserBuffer(t *testing.T) {
	userBuf := uint64(0x5000_0000)
	var conn *Conn
	insts := runKernel(t, 20000, func(k *Kernel, e *trace.Emitter) {
		if conn == nil {
			conn = k.OpenConnOn(0)
		}
		k.Recv(e, conn, userBuf, 1460)
	})
	wrote := false
	for _, in := range insts {
		if in.Op == trace.OpStore && in.Addr >= userBuf && in.Addr < userBuf+1460 {
			wrote = true
		}
	}
	if !wrote {
		t.Fatal("recv never copied into the user buffer")
	}
}

func TestFileReadHitsPageCache(t *testing.T) {
	insts := runKernel(t, 20000, func(k *Kernel, e *trace.Emitter) {
		k.FileRead(e, 7, 4096, 0x6000_0000, 8192)
	})
	kernelLoads := 0
	for _, in := range insts {
		if in.Kernel && in.Op == trace.OpLoad && in.Addr >= addrspace.KernelDataBase {
			kernelLoads++
		}
	}
	if kernelLoads == 0 {
		t.Fatal("file read never touched kernel page-cache data")
	}
}

func TestSkbPoolsArePerCPU(t *testing.T) {
	k := New(DefaultConfig())
	// Connections on different CPUs must never exchange buffers
	// (per-CPU slab caches), while connections on the same CPU recycle
	// the same hot window.
	a, b := k.OpenConnOn(0), k.OpenConnOn(1)
	seen := map[uint64]bool{}
	for i := 0; i < int(a.skbN); i++ {
		seen[a.nextSkb(k)] = true
	}
	for i := 0; i < int(b.skbN); i++ {
		if seen[b.nextSkb(k)] {
			t.Fatal("CPUs share socket buffers")
		}
	}
	c := k.OpenConnOn(0)
	shared := false
	for i := 0; i < int(c.skbN); i++ {
		if seen[c.nextSkb(k)] {
			shared = true
		}
	}
	if !shared {
		t.Fatal("same-CPU connections should recycle the same slab window")
	}
}

func TestConnControlBlocksDisjoint(t *testing.T) {
	k := New(DefaultConfig())
	a, b := k.OpenConnOn(0), k.OpenConnOn(0)
	// The generic kernel work walks 6 lines from the hot address; the
	// control blocks must be padded at least that far apart.
	if b.tcb-a.tcb < 384 && a.tcb-b.tcb < 384 {
		t.Fatalf("tcbs too close: %#x %#x", a.tcb, b.tcb)
	}
}

func TestSchedTickIsKernelMode(t *testing.T) {
	insts := runKernel(t, 5000, func(k *Kernel, e *trace.Emitter) {
		k.SchedTick(e, 2)
	})
	if s := kernelShare(insts); s < 0.9 {
		t.Fatalf("sched tick kernel share %.2f", s)
	}
}

func TestFutexWritesLockWord(t *testing.T) {
	lock := uint64(0x7000_0040)
	insts := runKernel(t, 5000, func(k *Kernel, e *trace.Emitter) {
		k.Futex(e, lock)
	})
	wrote := false
	for _, in := range insts {
		if in.Op == trace.OpStore && in.Addr == lock {
			wrote = true
		}
	}
	if !wrote {
		t.Fatal("futex never wrote the lock word")
	}
}

func TestKernelSaveLoadRoundTrip(t *testing.T) {
	cfg := Config{NICs: 2, PageCacheMB: 1}
	k := New(cfg)
	conns := []*Conn{k.OpenConnOn(0), k.OpenConnOn(1)}
	for i, c := range conns {
		for j := 0; j < 5+i; j++ {
			c.nextSkb(k)
			c.calls++
		}
	}
	k.OpenConnOn(2) // a third connection, so connSeq differs from a fresh two-connection kernel's

	var w checkpoint.Writer
	k.SaveState(&w)
	for _, c := range conns {
		c.SaveState(&w)
	}
	snap := w.Snapshot("t")

	k2 := New(cfg)
	conns2 := []*Conn{k2.OpenConnOn(0), k2.OpenConnOn(1)}
	rd := snap.Reader()
	k2.LoadState(rd)
	for _, c := range conns2 {
		c.LoadState(rd)
	}
	if err := rd.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if got := k2.connSeq; got != k.connSeq {
		t.Fatalf("connSeq %d, want %d", got, k.connSeq)
	}
	for i := range conns {
		if conns2[i].skbCur != conns[i].skbCur || conns2[i].calls != conns[i].calls {
			t.Fatalf("conn %d cursors not restored", i)
		}
	}
	// A kernel built with different geometry must be rejected.
	k3 := New(Config{NICs: 1, PageCacheMB: 1})
	rd3 := snap.Reader()
	k3.LoadState(rd3)
	if rd3.Err() == nil {
		t.Fatal("ring-count mismatch not detected")
	}
}

func TestExtraCodeWidensSyscallFootprint(t *testing.T) {
	narrow := New(Config{NICs: 1, PageCacheMB: 1})
	wide := New(Config{NICs: 1, PageCacheMB: 1, ExtraCodeKB: 256})
	if wide.fnSyscall.Size <= narrow.fnSyscall.Size {
		t.Fatalf("extra code did not widen syscall entry: %d vs %d",
			wide.fnSyscall.Size, narrow.fnSyscall.Size)
	}
}
