package serve

import (
	"context"
	"fmt"
	"time"

	"cacqr/internal/obs"
	"cacqr/internal/plan"
)

// Fused execution: where resolve shares one PLAN lookup among same-key
// requests, DoFused goes one step further and shares one EXECUTION. The first request for a key opens a fuse window;
// same-key requests arriving inside it join the group; when the window
// closes the leader runs the whole group as one fused batch (one rank
// gate acquisition, one pool dispatch) and distributes per-item
// results. This is the streaming counterpart of DoBatch for callers that
// submit one request at a time.

// fuseGroup is one open-or-executing fuse window. payloads/sealed are
// guarded by Server.mu until sealed; after seal only the leader touches
// the group until done closes, then everything is read-only.
type fuseGroup struct {
	done     chan struct{} // closed when plan/hit/err/errs are final
	payloads []any
	sealed   bool

	plan plan.Plan
	hit  bool
	err  error   // group-level failure (planning); overrides errs
	errs []error // per-payload results from lead, index-aligned
}

// DoFused admits one request carrying payload, fuses it with concurrent
// same-key requests inside Config.FuseWindow, and has the group's leader
// execute all payloads in one lead call under one rank-gate acquisition.
// lead receives the group's payloads in arrival order and returns
// index-aligned per-payload errors (nil = all succeeded); each caller
// gets its own entry. Close seals open windows immediately, so a
// partially-filled group drains rather than waiting out its window. A
// joiner whose ctx cancels abandons its wait (the leader still executes
// its payload; the result is discarded); a leader whose ctx cancels
// before it holds the rank gate fails the whole group.
func (s *Server) DoFused(ctx context.Context, req plan.Request, payload any, lead func(p plan.Plan, payloads []any) []error) (plan.Plan, bool, error) {
	return s.admitted(ctx, 1, func(ctx context.Context) (plan.Plan, bool, error) {
		start, key := time.Now(), plan.KeyFor(req)

		s.mu.Lock()
		if g, ok := s.fusing[key]; ok && !g.sealed {
			// Join the open window; the leader executes for us.
			idx := len(g.payloads)
			g.payloads = append(g.payloads, payload)
			s.mu.Unlock()
			js := obs.FromContext(ctx).Stage("fuse-join")
			select {
			case <-g.done:
			case <-ctx.Done():
				js.End()
				return plan.Plan{}, false, ctx.Err()
			}
			js.End()
			s.observe(key, time.Since(start), 1)
			if g.err != nil {
				return plan.Plan{}, false, g.err
			}
			return g.plan, g.hit, g.errs[idx]
		}
		// Lead a new window.
		g := &fuseGroup{done: make(chan struct{}), payloads: []any{payload}}
		s.fusing[key] = g
		s.mu.Unlock()

		if s.cfg.FuseWindow > 0 {
			s.pause(ctx, s.cfg.FuseWindow)
		}

		s.mu.Lock()
		g.sealed = true
		delete(s.fusing, key)
		n := len(g.payloads)
		s.fusedBatches++
		s.fusedRequests += int64(n)
		s.mu.Unlock()

		// One plan resolution and one gate admission for the group, then
		// one fused execution.
		g.plan, g.hit, _, g.err = s.planAndRun(ctx, key, req, n, func(p plan.Plan) error {
			if g.errs = lead(p, g.payloads); g.errs == nil {
				g.errs = make([]error, n)
			} else if len(g.errs) != n {
				return fmt.Errorf("serve: fused lead returned %d results for %d payloads", len(g.errs), n)
			}
			return nil
		})
		close(g.done)
		s.observe(key, time.Since(start), 1)
		if g.err != nil {
			return plan.Plan{}, false, g.err
		}
		return g.plan, g.hit, g.errs[0]
	})
}
