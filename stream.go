package flexsp

import (
	"context"
	"fmt"

	"flexsp/internal/solver"
)

// StreamOptions configures System.PlanStream, the in-process streaming
// planner.
type StreamOptions struct {
	// Expect is the total number of sequences the stream will see, when
	// known up front (e.g. a fixed global batch size). The append that
	// reaches it starts a background solve of the batch, so a Close that
	// comes later finds the plan done or under way. Zero means unknown:
	// Close solves.
	Expect int
}

// PlanStream opens an in-process streaming planning session: sequence
// lengths arrive incrementally via Append, the batch is solved in the
// background once Expect sequences have arrived, and Close returns the plan.
// This is the library-level counterpart of the daemon's POST /v2/stream
// routes (see Client.Stream).
func (s *System) PlanStream(opts StreamOptions) (*StreamPlanner, error) {
	if opts.Expect < 0 {
		return nil, fmt.Errorf("flexsp: negative Expect %d", opts.Expect)
	}
	return &StreamPlanner{sys: s, st: solver.NewStream(s.Solver, opts.Expect)}, nil
}

// StreamPlanner is an open streaming session from System.PlanStream. Append
// and Close are safe for concurrent use; abandon a session with Cancel.
type StreamPlanner struct {
	sys *System
	st  *solver.Stream
}

// Append adds sequence lengths to the accumulating batch and returns the
// total accumulated so far. Reaching Expect starts the background solve;
// Append itself never blocks on solving.
func (p *StreamPlanner) Append(lens ...int) (int, error) {
	return p.st.Append(lens...)
}

// Close seals the batch and returns the plan: the background solve's when it
// covered exactly this batch, else one solved now. The plan is
// byte-identical to System.Plan over the same lengths.
func (p *StreamPlanner) Close(ctx context.Context) (Plan, error) {
	res, err := p.st.Close(ctx)
	if err != nil {
		return nil, err
	}
	return &flatPlan{sys: p.sys, name: StrategyFlexSP, res: res}, nil
}

// Cancel abandons the session, stopping the background solve if one runs.
// Safe to call after Close or repeatedly.
func (p *StreamPlanner) Cancel() { p.st.Cancel() }

// Stats reports the session's activity so far.
func (p *StreamPlanner) Stats() solver.StreamStats { return p.st.Stats() }

// Len is the number of sequences appended so far.
func (p *StreamPlanner) Len() int { return p.st.Len() }
