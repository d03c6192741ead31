package serve

import (
	"context"
	"time"
)

// Latency is measured, never waited for: time.Now and time.Since are no
// clock a request is held on, and a context deadline is the caller's.
func timed(ctx context.Context, run func() error) (time.Duration, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	err := run()
	return time.Since(start), err
}
