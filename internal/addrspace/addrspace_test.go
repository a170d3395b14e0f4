package addrspace

import (
	"testing"
	"testing/quick"
)

func TestHeapAlloc(t *testing.T) {
	h := NewHeap("t", 0x1000, 0x1000)
	a := h.Alloc(100, 0)
	b := h.Alloc(100, 0)
	// A bump allocator: the second object starts at the first one's end,
	// rounded up to the default 8-byte alignment.
	if a != 0x1000 || b != 0x1068 {
		t.Fatalf("allocations at a=%#x b=%#x, want 0x1000 and 0x1068", a, b)
	}
}

func TestHeapAlignment(t *testing.T) {
	h := NewHeap("t", 0x1001, 0x10000)
	a := h.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("alloc not aligned: %#x", a)
	}
	p := h.Alloc(PageSize, PageSize)
	if p%PageSize != 0 {
		t.Fatalf("page not aligned: %#x", p)
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := NewHeap("t", 0, 64)
	h.Alloc(128, 0)
}

func TestHeapBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := NewHeap("t", 0, 1024)
	h.Alloc(8, 3)
}

func TestArray(t *testing.T) {
	h := NewUserHeap()
	a := NewArray(h, 10, 24)
	if a.At(0)%CacheLine != 0 {
		t.Fatalf("array base not line aligned: %#x", a.At(0))
	}
	if a.At(3)-a.At(2) != 24 {
		t.Fatalf("stride = %d, want 24", a.At(3)-a.At(2))
	}
	if a.Bytes() != 240 {
		t.Fatalf("bytes = %d", a.Bytes())
	}
}

func TestArrayOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := NewUserHeap()
	a := NewArray(h, 4, 8)
	a.At(4)
}

func TestStacksDisjoint(t *testing.T) {
	if StackFor(0)-StackFor(1) != StackStride {
		t.Fatal("stacks must be StackStride apart")
	}
}

// Property: allocations are disjoint and within the heap region.
func TestQuickAllocDisjoint(t *testing.T) {
	check := func(sizes []uint16) bool {
		h := NewHeap("q", 0x10000, 1<<24)
		var prevEnd uint64 = 0x10000
		for _, s := range sizes {
			size := uint64(s%2048) + 1
			a := h.Alloc(size, 8)
			if a < prevEnd || a+size > 0x10000+(1<<24) {
				return false
			}
			prevEnd = a + size
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
