package topo

import "testing"

func TestHops(t *testing.T) {
	cases := []struct {
		kind    Kind
		a, b    int
		sockets int
		want    int
	}{
		// Same socket is always zero hops.
		{FullMesh, 0, 0, 4, 0},
		{Ring, 3, 3, 8, 0},
		// Full mesh: every remote pair is one hop.
		{FullMesh, 0, 1, 2, 1},
		{FullMesh, 0, 3, 4, 1},
		{FullMesh, 1, 7, 8, 1},
		// Ring: the shorter way around.
		{Ring, 0, 1, 2, 1},
		{Ring, 0, 1, 4, 1},
		{Ring, 0, 2, 4, 2},
		{Ring, 0, 3, 4, 1}, // wraps
		{Ring, 1, 6, 8, 3}, // wraps: 1->0->7->6
		{Ring, 0, 4, 8, 4},
	}
	for _, c := range cases {
		if got := Hops(c.kind, c.a, c.b, c.sockets); got != c.want {
			t.Errorf("Hops(%v, %d, %d, %d) = %d, want %d",
				c.kind, c.a, c.b, c.sockets, got, c.want)
		}
		// Distance is symmetric.
		if got := Hops(c.kind, c.b, c.a, c.sockets); got != c.want {
			t.Errorf("Hops(%v, %d, %d, %d) = %d, want %d (asymmetric)",
				c.kind, c.b, c.a, c.sockets, got, c.want)
		}
	}
}

// The diameter, the largest pairwise Hops, is one hop on a full mesh
// of two or more sockets and half the socket count on a ring.
func TestDiameter(t *testing.T) {
	for sockets := 1; sockets <= 8; sockets++ {
		for _, k := range []Kind{FullMesh, Ring} {
			got := 0
			for a := 0; a < sockets; a++ {
				for b := 0; b < sockets; b++ {
					got = max(got, Hops(k, a, b, sockets))
				}
			}
			want := min(sockets-1, 1)
			if k == Ring {
				want = sockets / 2
			}
			if got != want {
				t.Errorf("diameter of %v with %d sockets = %d, want %d", k, sockets, got, want)
			}
		}
	}
}

func TestKindValidAndString(t *testing.T) {
	if !FullMesh.Valid() || !Ring.Valid() || Kind(250).Valid() {
		t.Error("Kind.Valid misclassifies")
	}
	if FullMesh.String() != "mesh" || Ring.String() != "ring" {
		t.Error("Kind.String names drifted")
	}
}
