package core

import "testing"

func TestSocketsOptionCanonicalization(t *testing.T) {
	// Sockets: 2 and SplitSockets: true are the same measurement and
	// must share a memoization cache slot.
	a := canonicalize(Options{Sockets: 2, Cores: 4})
	b := canonicalize(Options{SplitSockets: true, Cores: 4})
	if a != b {
		t.Fatalf("canonical forms differ:\n%+v\n%+v", a, b)
	}
	if a.machine.Mem.Sockets != 2 || !a.splitSockets {
		t.Fatalf("Sockets: 2 not canonicalized to a split two-socket run: %+v", a)
	}
}

func TestPlaceCoreSpreadsSocketsEvenly(t *testing.T) {
	mem := TwoSocket().Mem
	// 4 cores over 2 sockets: the first block on socket 0, the second on
	// socket 1 (the Figure-6 placement).
	want := []int{0, 1, 6, 7}
	for cid, w := range want {
		if got := placeCore(cid, 4, true, mem); got != w {
			t.Errorf("placeCore(%d, 4) = %d, want %d", cid, got, w)
		}
	}
	// 12 cores fill both sockets completely.
	seen := map[int]bool{}
	for cid := 0; cid < 12; cid++ {
		g := placeCore(cid, 12, true, mem)
		if g < 0 || g >= 12 || seen[g] {
			t.Fatalf("placeCore(%d, 12) = %d: out of range or duplicate", cid, g)
		}
		seen[g] = true
	}
	// Without split placement the socket-0 cores are used in order.
	if got := placeCore(3, 4, false, mem); got != 3 {
		t.Errorf("unsplit placeCore(3, 4) = %d, want 3", got)
	}
}

func TestMeasureRejectsOversubscribedCores(t *testing.T) {
	o := fastOptions()
	o.Cores = 8 // exceeds one 6-core socket
	b, _ := FindBench("Web Search")
	if _, err := MeasureBench(b, o); err == nil {
		t.Fatal("8 cores on a single socket must be rejected")
	}
	o.Sockets = 2 // 8 cores fit a two-socket machine
	if _, err := MeasureBench(b, o); err != nil {
		t.Fatalf("8 cores over two sockets rejected: %v", err)
	}
}

func TestScaleUpStudy(t *testing.T) {
	o := fastOptions()
	entries := ScaleOutEntries()[:2]
	points := []ScalePoint{{Sockets: 1, Cores: 1}, {Sockets: 1, Cores: 2}, {Sockets: 2, Cores: 2}}
	rows, err := NewRunner(0).ScaleUpStudy(entries, points, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(entries) {
		t.Fatalf("rows = %d, want %d", len(rows), len(entries))
	}
	for _, r := range rows {
		if len(r.Cells) != len(points) {
			t.Fatalf("%s: cells = %d, want %d", r.Label, len(r.Cells), len(points))
		}
		base, two, split := r.Cells[0], r.Cells[1], r.Cells[2]
		if base.Speedup != 1 {
			t.Errorf("%s: baseline speedup = %f, want 1", r.Label, base.Speedup)
		}
		if base.ChipIPC <= 0 || two.ChipIPC <= base.ChipIPC {
			t.Errorf("%s: 2 cores (%.3f) should out-commit 1 core (%.3f)",
				r.Label, two.ChipIPC, base.ChipIPC)
		}
		if base.RemoteHitPKI != 0 || base.RemoteDRAMFrac != 0 {
			t.Errorf("%s: single-socket run shows remote traffic: %+v", r.Label, base)
		}
		if split.RemoteDRAMFrac <= 0 {
			t.Errorf("%s: interleaved pages must produce remote DRAM reads on 2 sockets", r.Label)
		}
	}
	// The sweep is one batch: a second run is fully cached.
	r2 := NewRunner(0)
	if _, err := r2.ScaleUpStudy(entries, points, o); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ScaleUpStudy(entries, points, o); err != nil {
		t.Fatal(err)
	}
	s := runnerStats(t, r2)
	if s.CacheHits != s.Requests/2 {
		t.Errorf("second sweep not cached: %+v", s)
	}
}

func TestTwoSocketDoublesChannels(t *testing.T) {
	o := fastOptions()
	o.Sockets = 2
	b, _ := FindBench("Data Serving")
	m, err := MeasureBench(b, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.DRAMChannels != 6 {
		t.Fatalf("two-socket DRAM channels = %d, want 6", m.DRAMChannels)
	}
	if m.RemoteSocketHit == 0 {
		t.Error("split run shows no remote socket hits")
	}
}

func TestPollutersCoverEverySocket(t *testing.T) {
	mem := TwoSocket().Mem
	// Split 4-core run (ids 0,1,6,7): one polluter per socket.
	coreOf := []int{0, 1, 6, 7}
	pcores, err := polluterCores(coreOf, mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcores) != 2 || pcores[0]/6 != 0 || pcores[1]/6 != 1 {
		t.Fatalf("polluters %v should cover both sockets", pcores)
	}
	// Single-socket run keeps the paper's placement: the next two ids.
	pcores, err = polluterCores([]int{0, 1, 2, 3}, XeonX5670().Mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcores) != 2 || pcores[0] != 4 || pcores[1] != 5 {
		t.Fatalf("single-socket polluters = %v, want [4 5]", pcores)
	}
	// An 8-core two-socket run has spare cores for polluters.
	o := fastOptions()
	o.Cores, o.Sockets, o.PolluteBytes = 8, 2, 4<<20
	b, _ := FindBench("Web Search")
	if _, err := MeasureBench(b, o); err != nil {
		t.Fatalf("8-core 2-socket polluted run rejected: %v", err)
	}
}
