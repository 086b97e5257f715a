package solver

import (
	"context"
	"fmt"
	"sync"

	"flexsp/internal/planner"
)

// This file implements streaming ingestion: a Stream collects a batch's
// sequence lengths as they arrive and, when the caller knows how many to
// expect, solves the batch in the background as soon as it is complete, so
// the solve overlaps the gap between the last arrival and Close.
//
// The background solve is an ordinary solve of the complete batch, except
// that it holds back its plan-cache writes. It reads them back as a cold
// solve reads its own writes from the shared cache, and Close replays them
// in order when it returns that solve's result, so plans and cache end as a
// cold solve of the batch would leave them. A session that outgrows its
// expected count cancels the solve and drops the held writes: plans of a
// batch the session never closed on must not enter the rounded cache, where
// a retarget could make a later cold solve diverge from a fresh one.

// ErrStreamClosed is returned by Append and Close once a Stream has been
// closed or canceled.
var ErrStreamClosed = fmt.Errorf("solver: stream closed")

// StreamStats is a point-in-time snapshot of one session's activity.
type StreamStats struct {
	// Appended is the total sequence count ingested so far.
	Appended int `json:"appended"`
	// Speculations counts background solves launched (at most one), and
	// Superseded those canceled because the batch grew past them.
	Speculations int64 `json:"speculations"`
	Superseded   int64 `json:"superseded"`
	// Reused reports that Close returned the background solve's result
	// without solving again.
	Reused bool `json:"reused"`
}

// Stream is one streaming planning session over a Solver: Append ingests
// sequence lengths (concurrency-safe), the append that brings the batch to
// the expected count starts one background solve, and Close returns that
// solve's result or solves the batch itself. A Stream must not outlive its
// Solver.
type Stream struct {
	s      *Solver
	expect int

	mu     sync.Mutex
	lens   []int
	closed bool
	bg     *background
	stats  StreamStats
}

// background is the session's one background solve. res, held and err are
// written before done is closed; readers must wait on done first.
type background struct {
	cancel context.CancelFunc
	done   chan struct{}
	res    Result
	held   heldWrites
	err    error
}

// heldWrites are the plan-cache writes a solve holds back: in order, for
// Close to replay, and in a private cache shaped like the shared one, which
// the solve reads before the shared cache.
type heldWrites struct {
	puts  []cachePut
	cache *PlanCache
}

// cachePut is one held plan-cache write.
type cachePut struct {
	lens []int
	plan planner.MicroPlan
}

func (h *heldWrites) put(lens []int, p planner.MicroPlan) {
	h.puts = append(h.puts, cachePut{lens: lens, plan: p})
	h.cache.Put(lens, p)
}

// NewStream opens a streaming session on the solver. A positive expect is
// the anticipated sequence count: the append that reaches it starts a
// background solve of the batch. Zero means unknown, and Close solves.
func NewStream(s *Solver, expect int) *Stream {
	return &Stream{s: s, expect: expect}
}

// Append ingests sequence lengths and returns the session's total count. It
// is safe to call concurrently. The append that brings the batch to the
// expected count starts the background solve; a later append that adds
// lengths cancels it, and Close then solves the grown batch.
func (st *Stream) Append(lens ...int) (int, error) {
	for _, l := range lens {
		if l <= 0 {
			return 0, fmt.Errorf("solver: non-positive sequence length %d", l)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, ErrStreamClosed
	}
	st.lens = append(st.lens, lens...)
	total := len(st.lens)
	st.stats.Appended = total
	switch {
	case len(lens) > 0 && st.bg != nil:
		st.bg.cancel()
		st.bg = nil
		st.stats.Superseded++
	case st.expect > 0 && total >= st.expect && st.stats.Speculations == 0:
		st.stats.Speculations++
		st.bg = st.start(append([]int(nil), st.lens...))
	}
	return total, nil
}

// start launches the background solve of batch.
func (st *Stream) start(batch []int) *background {
	ctx, cancel := context.WithCancel(context.Background())
	bg := &background{cancel: cancel, done: make(chan struct{})}
	if pc := st.s.Cache; pc != nil {
		bg.held.cache = NewPlanCache(pc.shardLimit*len(pc.shards), pc.granularity)
	}
	go func() {
		defer close(bg.done)
		defer cancel()
		bg.res, bg.err = st.s.solve(ctx, batch, &bg.held)
	}()
	return bg
}

// Close seals the session and returns the plan for everything appended.
// When the background solve covered exactly this batch, Close waits for it,
// replays its held plan-cache writes and returns its result; otherwise it
// solves the batch with SolveContext. Either way the plans equal a cold
// SolveContext of the batch. A second Close returns ErrStreamClosed.
func (st *Stream) Close(ctx context.Context) (Result, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return Result{}, ErrStreamClosed
	}
	st.closed = true
	final, bg := st.lens, st.bg
	st.bg = nil
	st.mu.Unlock()

	if bg != nil {
		select {
		case <-bg.done:
		case <-ctx.Done():
			bg.cancel()
			return Result{}, ctx.Err()
		}
		if bg.err == nil {
			for _, p := range bg.held.puts {
				st.s.Cache.Put(p.lens, p.plan)
			}
			st.mu.Lock()
			st.stats.Reused = true
			st.mu.Unlock()
			return bg.res, nil
		}
	}
	return st.s.SolveContext(ctx, final)
}

// Cancel abandons the session: the background solve stops and further
// Append/Close calls return ErrStreamClosed. Safe to call repeatedly and
// concurrently with Append/Close (one of them wins the session).
func (st *Stream) Cancel() {
	st.mu.Lock()
	st.closed = true
	bg := st.bg
	st.bg = nil
	st.mu.Unlock()
	if bg != nil {
		bg.cancel()
	}
}

// Lengths returns a copy of the sequence lengths appended so far. After
// Cancel or Close it is the session's final batch.
func (st *Stream) Lengths() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.lens...)
}

// Len returns the number of sequences appended so far.
func (st *Stream) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lens)
}

// Stats returns a snapshot of the session's activity.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}
