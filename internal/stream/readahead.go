package stream

import (
	"fmt"
	"io"

	"cacqr/internal/lin"
)

// readAhead keeps a Source one panel ahead of its consumer: a goroutine
// has the source read the next panel into one of two buffers and
// multiplies it in place by every Yᵀ of the pass, while the consumer
// works on the other buffer — so reading panel i+1 and its triangular
// products overlap the consumer's in-order work on panel i (the
// I/O–arithmetic overlap of sequential CAQR, arXiv 0809.2407). The two
// buffers are all the panel memory a scan holds. Panels come out in
// source order and belong to the consumer — which may overwrite them —
// until its following call to next. The source and the inverses must
// not be touched between startReadAhead and close.
type readAhead struct {
	// panels is unbuffered: the reader can hand over panel i+1, and go on
	// to refill panel i's buffer and multiply it, only once the consumer
	// has come back for it and is therefore done with panel i. That
	// hand-off is what lets the products run here: the reader never
	// writes a buffer the consumer still holds.
	panels chan fetched
	stop   chan struct{} // closed by close: the consumer has given up
	done   chan struct{} // closed when the reader goroutine has exited
}

type fetched struct {
	p   *lin.Matrix
	err error
}

// startReadAhead starts reading src into bufs (b×n each, so panels of
// at most b rows), each panel multiplied by y₁ᵀ⋯yₖᵀ for ys in order,
// every product on at most workers goroutines. The caller must call
// close on every path.
func startReadAhead(src Source, bufs [2]*lin.Matrix, ys []*lin.Matrix, workers int) *readAhead {
	r := &readAhead{panels: make(chan fetched), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer close(r.panels)
		for i := 0; ; i++ {
			buf := bufs[i%2]
			p, err := src.NextInto(buf)
			if err == nil {
				// The products run in place: a panel anywhere but at
				// the top of buf would have them overwrite the source.
				if p.Rows < 1 || p.Rows > buf.Rows || p.Cols != buf.Cols || p.Stride != buf.Stride || &p.Data[0] != &buf.Data[0] {
					p, err = nil, fmt.Errorf("source yielded a %dx%d panel outside its %dx%d buffer", p.Rows, p.Cols, buf.Rows, buf.Cols)
				} else {
					for _, y := range ys {
						lin.TrmmParallel(workers, lin.Right, lin.Lower, true, y, p)
					}
				}
			}
			select {
			case r.panels <- fetched{p, err}:
			case <-r.stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return r
}

// next returns the next panel, the source's error, or io.EOF once the
// source is exhausted (or has failed).
func (r *readAhead) next() (*lin.Matrix, error) {
	f, ok := <-r.panels
	if !ok {
		return nil, io.EOF
	}
	return f.p, f.err
}

// close stops the reader and returns once its goroutine has exited, so
// the source is the caller's again.
func (r *readAhead) close() {
	close(r.stop)
	<-r.done
}
