package serve

import (
	"context"
	"time"
)

// A batching window: a request held on a timer before it runs.
func hold(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d) // want "no-clock: time.NewTimer"
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func backoff() {
	time.Sleep(time.Millisecond)   // want "no-clock: time.Sleep"
	<-time.After(time.Millisecond) // want "no-clock: time.After"
	f := time.AfterFunc            // want "no-clock: time.AfterFunc"
	_ = f
	_ = time.NewTicker // want "no-clock: time.NewTicker"
	_ = time.Tick      // want "no-clock: time.Tick"
}
