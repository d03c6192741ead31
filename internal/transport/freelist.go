package transport

import (
	"slices"
	"sync"
)

// FreeList recycles the buffers of one run's messages: a link takes one
// per message and hands it back with Put once the payload has been
// copied out (or written to the wire), so a steady exchange reuses the
// same few buffers instead of allocating one per message. Buffers are
// kept by length — an algorithm's messages come in a handful of sizes —
// so a hit is a pop from the list of that size. The list belongs to the
// run that made it: nothing else refers to it, and it is garbage with
// the run. The zero value is an empty list; it is safe for concurrent
// use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free map[int][][]T // by length
}

// take pops a buffer of length n, or returns nil.
func (f *FreeList[T]) take(n int) []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	bufs := f.free[n]
	if len(bufs) == 0 {
		return nil
	}
	buf := bufs[len(bufs)-1]
	bufs[len(bufs)-1] = nil
	f.free[n] = bufs[:len(bufs)-1]
	return buf
}

// Get returns a buffer of length n, recycled when the list has one, new
// otherwise. Its contents are unspecified. Get(0) is nil.
func (f *FreeList[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	if buf := f.take(n); buf != nil {
		return buf
	}
	return make([]T, n)
}

// Copy returns a buffer holding a copy of src: Get and copy, except that
// a new buffer is made already filled and is never cleared first.
func (f *FreeList[T]) Copy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if buf := f.take(len(src)); buf != nil {
		copy(buf, src)
		return buf
	}
	return slices.Clone(src)
}

// Put hands a buffer from Get or Copy back, at the length it was given
// out with. The caller must hold no other reference to it.
func (f *FreeList[T]) Put(buf []T) {
	if len(buf) == 0 {
		return
	}
	f.mu.Lock()
	if f.free == nil {
		f.free = make(map[int][][]T)
	}
	f.free[len(buf)] = append(f.free[len(buf)], buf)
	f.mu.Unlock()
}
