package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
)

// This file pins the directory protocol's observable behaviour: a
// seeded stream of loads, stores, instruction fetches and direct calls
// to all three prefetchers, user and kernel, is replayed through one
// System per machine shape, and the SHA-256 of the resulting machine
// state plus the summed completion latencies must match the committed
// digest. The machines span 1-4 sockets x {IPrefNextLine, IPrefStream}
// with every data prefetcher on, so the demand, prefetch and
// write-claim paths all meet with remote copies in several sockets.
//
// The digest hashes the in-memory state that defines behaviour — each
// valid way's index, tag, flags, owner and sharers, each set's LRU
// order, and every core's counters — rather than SaveState bytes, so a
// change to the checkpoint encoding or to raw stamp values (a clock
// rebase) leaves it alone; only a change to what the protocol does
// moves it.
//
// Regenerate (only when an intentional model change invalidates the
// baseline — never to paper over a diff):
//
//	go test ./internal/sim/cache -run TestProtocolGolden -update-protocol-golden

var updateProtocolGolden = flag.Bool("update-protocol-golden", false,
	"rewrite testdata/protocol_golden.json from the current tree")

const protocolGoldenPath = "testdata/protocol_golden.json"

// protocolMachines enumerates the golden machine shapes by a stable
// name; the names are the comparison keys. "mesh" names the one-hop
// socket interconnect every machine has.
func protocolMachines() map[string]SystemConfig {
	out := make(map[string]SystemConfig)
	for sockets := 1; sockets <= 4; sockets++ {
		for _, ip := range []struct {
			name string
			mode IPrefMode
		}{{"nextline", IPrefNextLine}, {"stream", IPrefStream}} {
			cfg := testSystemConfig(sockets, 2)
			cfg.IPrefetch = ip.mode
			cfg.AdjacentLine, cfg.HWPrefetcher, cfg.DCUStreamer = true, true, true
			out[fmt.Sprintf("sockets=%d/mesh/%s", sockets, ip.name)] = cfg
		}
	}
	return out
}

// protocolDigest replays the seeded op stream through a fresh system
// built from cfg and returns the hex digest of its final state and the
// summed demand latencies.
func protocolDigest(t *testing.T, cfg SystemConfig) string {
	t.Helper()
	s := NewSystem(cfg)
	s.EnableInvariantChecks(64)
	cores := cfg.TotalCores()
	rng := rand.New(rand.NewSource(22))
	// Per-core sequential cursors train the stride and DCU streamers
	// (data) and the next-line and stream prefetchers (instructions).
	dataCur := make([]uint64, cores)
	pcCur := make([]uint64, cores)
	for c := range dataCur {
		dataCur[c] = 0x10000 + uint64(c)*0x400
		pcCur[c] = 0x800
	}
	// dataLine mixes a hot pool every core shares (read-write sharing
	// across sockets), each core's stream, and a span wider than the
	// LLC (evictions and back-invalidations).
	dataLine := func(c int) uint64 {
		switch r := rng.Intn(10); {
		case r < 4:
			return 0x4000 + uint64(rng.Intn(192))
		case r < 8:
			dataCur[c] += 1 + uint64(rng.Intn(2))
			return dataCur[c]
		default:
			return 0x20000 + uint64(rng.Intn(8192))
		}
	}
	// instrLine walks a shared code region, jumping now and then, so
	// instruction lines replicate across sockets.
	instrLine := func(c int) uint64 {
		if rng.Intn(8) == 0 {
			pcCur[c] = 0x800 + uint64(rng.Intn(1536))
		} else {
			pcCur[c]++
		}
		return pcCur[c]
	}
	var latency int64
	now := int64(0)
	for op := 0; op < 8000; op++ {
		now += 1 + int64(rng.Intn(3))
		c := rng.Intn(cores)
		kernel := rng.Intn(4) == 0
		switch r := rng.Intn(20); {
		case r < 7:
			latency += s.AccessData(c, dataLine(c)<<LineShift, false, kernel, now).Done - now
		case r < 11:
			latency += s.AccessData(c, dataLine(c)<<LineShift, true, kernel, now).Done - now
		case r < 16:
			latency += s.FetchInstr(c, instrLine(c)<<LineShift, now, kernel).Done - now
		case r < 17:
			s.prefetchL1(c, dataLine(c), kernel, now)
		case r < 18:
			s.prefetchL2(c, dataLine(c), kernel, now)
		default:
			s.prefetchInstr(c, instrLine(c), kernel, now)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashMachineState(h, s)
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(latency)))
	return hex.EncodeToString(h.Sum(nil))
}

// hashMachineState writes s's behaviour-defining cache and counter
// state to h: for every cache in s.caches() order, each set's valid
// ways as (way, tag, flags, owner, LRU rank, sharer words), then every
// core's counter block. The LRU rank is the way's dense stamp rank
// within its set (1 = oldest, tied stamps tied), so it records the
// order replacement sees, not the clock values behind it.
func hashMachineState(h hash.Hash, s *System) {
	var buf []byte
	var stamps []uint32
	for _, c := range s.caches() {
		for base := 0; base < len(c.lines); base += c.assoc {
			ways := c.lines[base : base+c.assoc]
			stamps = stamps[:0]
			for i := range ways {
				if ways[i].valid() {
					stamps = append(stamps, ways[i].lru)
				}
			}
			slices.Sort(stamps)
			stamps = slices.Compact(stamps)
			for i := range ways {
				l := &ways[i]
				if !l.valid() {
					continue
				}
				rank, _ := slices.BinarySearch(stamps, l.lru)
				buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(i))
				buf = binary.LittleEndian.AppendUint64(buf, l.tag)
				buf = append(buf, byte(l.flags))
				buf = binary.LittleEndian.AppendUint16(buf, uint16(l.owner))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(rank+1))
				for _, word := range c.dir[(base+i)*c.dirWords : (base+i+1)*c.dirWords] {
					buf = binary.LittleEndian.AppendUint64(buf, word)
				}
				h.Write(buf)
			}
			h.Write([]byte{0xff}) // set boundary
		}
	}
	for _, ctr := range s.ctrs {
		if err := binary.Write(h, binary.LittleEndian, ctr); err != nil {
			panic(err)
		}
	}
}

// TestProtocolGolden proves the directory protocol keeps producing the
// committed state and latencies on every golden machine shape.
func TestProtocolGolden(t *testing.T) {
	machines := protocolMachines()
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string, len(names))
	for _, name := range names {
		got[name] = protocolDigest(t, machines[name])
	}

	if *updateProtocolGolden {
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(protocolGoldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d protocol digests to %s", len(got), protocolGoldenPath)
		return
	}

	raw, err := os.ReadFile(protocolGoldenPath)
	if err != nil {
		t.Fatalf("missing golden baseline (run with -update-protocol-golden on a known-good tree): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d machines, test enumerates %d", len(want), len(got))
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: protocol digest %s, golden %s", name, got[name], want[name])
		}
	}
}
