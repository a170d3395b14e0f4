// Package addrspace provides the simulated virtual address space that
// workload models allocate their data structures in.
//
// Workload kernels are real Go algorithms, but their data lives at
// simulated addresses: a skiplist node is a Go struct whose simulated
// address was handed out by a Heap. Loads and stores emitted through
// trace.Emitter reference those addresses, so the cache hierarchy sees
// honest layouts — object sizes, field offsets, allocation order and
// fragmentation all carry through to the miss patterns.
package addrspace

import (
	"fmt"
	"sync"

	"cloudsuite/internal/sim/checkpoint"
)

// Standard layout of the simulated address space. User code, user data
// and kernel regions are widely separated so that instruction and data
// streams never alias.
const (
	// UserCodeBase is where user program text is laid out.
	UserCodeBase uint64 = 0x0000_0000_0040_0000
	// UserCodeSize caps the user text segment (256MB, far beyond any
	// workload's footprint; the emitter panics if exceeded).
	UserCodeSize uint64 = 256 << 20

	// HeapBase is where user data allocations start.
	HeapBase uint64 = 0x0000_0000_4000_0000
	// HeapSize caps the simulated user heap (64GB of address space).
	HeapSize uint64 = 64 << 30

	// StackBase is the top of the first thread's stack; stacks grow down
	// and successive threads are offset by StackStride.
	StackBase   uint64 = 0x0000_7fff_f000_0000
	StackStride uint64 = 8 << 20

	// KernelCodeBase is where kernel text is laid out.
	KernelCodeBase uint64 = 0xffff_ffff_8000_0000
	// KernelCodeSize caps kernel text.
	KernelCodeSize uint64 = 64 << 20

	// KernelDataBase is where kernel data structures live.
	KernelDataBase uint64 = 0xffff_8880_0000_0000
	// KernelDataSize caps kernel data.
	KernelDataSize uint64 = 16 << 30

	// PageSize is the simulated page size used by the TLB model.
	PageSize uint64 = 4096

	// CacheLine is the cache line size used throughout the simulator.
	CacheLine uint64 = 64
)

// Heap is a concurrency-safe bump allocator for a region of the
// simulated address space. It never frees: workloads model steady-state
// heaps by allocating once and reusing, which matches how the measured
// applications pre-size their datasets.
type Heap struct {
	mu   sync.Mutex
	base uint64
	next uint64
	end  uint64
	name string
}

// NewHeap returns a heap allocating from [base, base+size).
func NewHeap(name string, base, size uint64) *Heap {
	return &Heap{base: base, next: base, end: base + size, name: name}
}

// NewUserHeap returns a heap over the standard user data region.
func NewUserHeap() *Heap { return NewHeap("user", HeapBase, HeapSize) }

// NewKernelHeap returns a heap over the standard kernel data region.
func NewKernelHeap() *Heap { return NewHeap("kernel", KernelDataBase, KernelDataSize) }

// Alloc returns the simulated address of a new object of the given size,
// aligned to align bytes (align must be a power of two; 0 means 8).
func (h *Heap) Alloc(size uint64, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("addrspace: alignment %d is not a power of two", align))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	addr := (h.next + align - 1) &^ (align - 1)
	if addr+size > h.end {
		panic(fmt.Sprintf("addrspace: heap %q exhausted (%d bytes requested)", h.name, size))
	}
	h.next = addr + size
	return addr
}

// AllocLines allocates size bytes aligned to a cache line.
func (h *Heap) AllocLines(size uint64) uint64 { return h.Alloc(size, CacheLine) }

// AllocPage allocates one page-aligned page.
func (h *Heap) AllocPage() uint64 { return h.Alloc(PageSize, PageSize) }

// Used reports the number of bytes allocated (including alignment waste).
func (h *Heap) Used() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.next - h.base
}

// SaveState serializes the allocation cursor. The region geometry is
// construction-time configuration; only the bump cursor moves at run
// time (workloads that allocate per request, like the dataserving
// memtable, advance it), so it is the only field a warm image carries.
func (h *Heap) SaveState(w *checkpoint.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w.Tag("heap")
	w.U64(h.base)
	w.U64(h.end)
	w.U64(h.next)
}

// LoadState restores the cursor, validating that the heap geometry
// matches the one the snapshot was taken under.
func (h *Heap) LoadState(rd *checkpoint.Reader) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rd.Expect("heap")
	base, end := rd.U64(), rd.U64()
	next := rd.U64()
	if rd.Err() != nil {
		return
	}
	if base != h.base || end != h.end {
		rd.Failf("heap %q geometry mismatch: snapshot [%#x,%#x), state [%#x,%#x)", h.name, base, end, h.base, h.end)
		return
	}
	if next < h.next {
		// The snapshot predates some of this instance's construction-time
		// allocations: the workload was rebuilt differently.
		rd.Failf("heap %q cursor %#x precedes construction watermark %#x", h.name, next, h.next)
		return
	}
	h.next = next
}

// Array is a convenience view over a contiguous simulated allocation with
// fixed-size elements.
type Array struct {
	Base   uint64
	Elem   uint64
	Len    uint64
	stride uint64
}

// NewArray allocates an array of n elements of elemSize bytes, padding
// each element to its natural alignment within the array.
func NewArray(h *Heap, n, elemSize uint64) Array {
	stride := elemSize
	base := h.AllocLines(n * stride)
	return Array{Base: base, Elem: elemSize, Len: n, stride: stride}
}

// At returns the simulated address of element i.
func (a Array) At(i uint64) uint64 {
	if i >= a.Len {
		panic(fmt.Sprintf("addrspace: array index %d out of range %d", i, a.Len))
	}
	return a.Base + i*a.stride
}

// Bytes reports the total footprint of the array.
func (a Array) Bytes() uint64 { return a.Len * a.stride }

// StackFor returns the initial stack pointer for software thread tid.
func StackFor(tid int) uint64 {
	return StackBase - uint64(tid)*StackStride
}

// LineOf returns the cache-line base address containing addr.
func LineOf(addr uint64) uint64 { return addr &^ (CacheLine - 1) }

// PageOf returns the page base address containing addr.
func PageOf(addr uint64) uint64 { return addr &^ (PageSize - 1) }
