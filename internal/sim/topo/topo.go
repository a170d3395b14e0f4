// Package topo models the socket-level interconnect as a point-to-point
// link topology. The cache system uses it to scale cross-socket latency
// with hop distance: the first hop is priced by the cache configuration
// (RemoteHitCycles / RemoteMemCycles, the measured QPI numbers), and
// every additional hop adds a fixed per-hop cost. On one- and
// two-socket machines every remote pair is one hop away under every
// topology, so the generalisation is exactly the original QPI model
// there.
package topo

import "fmt"

// Kind selects the link topology between sockets.
type Kind uint8

const (
	// FullMesh links every socket pair directly (glueless QPI): every
	// remote socket is one hop away regardless of socket count.
	FullMesh Kind = iota
	// Ring links each socket to two neighbours; hop distance is the
	// shorter way around the ring, so the diameter grows with the
	// socket count.
	Ring

	numKinds
)

// Valid reports whether k names a known topology.
func (k Kind) Valid() bool { return k < numKinds }

func (k Kind) String() string {
	switch k {
	case FullMesh:
		return "mesh"
	case Ring:
		return "ring"
	}
	return fmt.Sprintf("topo.Kind(%d)", uint8(k))
}

// Hops returns the link distance from socket a to socket b on a
// machine of the given socket count. Same-socket distance is zero.
func Hops(k Kind, a, b, sockets int) int {
	if a == b {
		return 0
	}
	switch k {
	case Ring:
		d := a - b
		if d < 0 {
			d = -d
		}
		if wrap := sockets - d; wrap < d {
			d = wrap
		}
		return d
	default: // FullMesh and anything unknown: direct link.
		return 1
	}
}
