package main

import (
	"runtime"
	"sync"
	"time"
)

// Each core's share of the yardstick: yardstickPasses updates of one
// yardstickWords-long array from another — two arrays of 128 KiB,
// resident in the core's L2 and streamed through its L1, like a
// kernel's panel.
const (
	yardstickWords  = 16384
	yardstickPasses = 600
)

// yardstickQuietMs is what the yardstick reads on the reference box
// while no other tenant is in the way. Times reported "at yardstick
// speed" are scaled to it: an estimate of the time on the undisturbed
// box. Only ratios between commits matter, so it is a constant and not
// a measurement.
const yardstickQuietMs = 5.5

// yardstick runs a fixed amount of the benchmark's own arithmetic on
// every core at once and returns the slowest core's time in ms. It
// calls nothing in the repository, so no change to the program can move
// it: it measures only how fast the machine is at this moment.
func yardstick() float64 {
	n := runtime.GOMAXPROCS(0)
	took := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x, y := make([]float64, yardstickWords), make([]float64, yardstickWords)
			for i := range x {
				x[i], y[i] = float64(i%7)+0.5, float64(i%5)+0.25
			}
			start := time.Now()
			for pass := 0; pass < yardstickPasses; pass++ {
				a := 1e-9 * float64(pass+1)
				// Unrolled by hand: as a one-line loop this ran a third
				// slower whenever the linker placed it across a 64-byte
				// boundary, which any change to the binary can do.
				for i := 0; i+8 <= len(x); i += 8 {
					xs, ys := x[i:i+8:i+8], y[i:i+8:i+8]
					ys[0] += a * xs[0]
					ys[1] += a * xs[1]
					ys[2] += a * xs[2]
					ys[3] += a * xs[3]
					ys[4] += a * xs[4]
					ys[5] += a * xs[5]
					ys[6] += a * xs[6]
					ys[7] += a * xs[7]
				}
			}
			took[g] = time.Since(start).Seconds() * 1e3
			runtime.KeepAlive(y)
		}(g)
	}
	wg.Wait()
	slowest := 0.0
	for _, t := range took {
		if t > slowest {
			slowest = t
		}
	}
	return slowest
}
