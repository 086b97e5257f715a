package solver

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"flexsp/internal/obs"
	"flexsp/internal/planner"
)

// This file implements streaming ingestion with speculative warm-started
// solving: a Stream accumulates sequence lengths as they arrive and solves
// speculative partial batches in the background, so that by the time the
// batch closes the final solve is warm — or free, when the last speculation
// already solved the closed multiset.
//
// Warm starting is a pure accelerator, never an approximation. Two exact-
// signature mechanisms carry state from speculation to the final solve, and
// both provably reproduce the cold path's plans:
//
//   - Whole-batch reuse: when the closed multiset equals the multiset of the
//     latest speculative solve (the Expect hint fires that solve with the
//     final append), its Result is the cold result — the solver is a
//     deterministic function of the batch multiset.
//   - Micro-plan warm store: every speculative solve memoizes the outcome of
//     each micro-batch its walk answers, per exact signature; the final
//     solve probes the store before the shared cache. A hit returns exactly
//     what the solve produced for that signature, so the final plans match a
//     cold solve under the same shared-cache state.
//
// Speculative solves read the shared PlanCache but never write it: plans
// derived from partial-batch shapes must not leak into the rounded cache,
// where a retarget could make a later cold solve diverge from a fresh one.
// The close-time solve (or whole-batch reuse) publishes the final batch's
// micro plans instead, leaving the cache exactly as a cold solve would.

// ErrStreamClosed is returned by Append and Close once a Stream has been
// closed or canceled.
var ErrStreamClosed = fmt.Errorf("solver: stream closed")

// Stream lifecycle events reported through StreamConfig.Observe, so a
// serving layer can count speculation activity without polling.
const (
	// StreamEventSpeculate marks a speculative solve being launched.
	StreamEventSpeculate = "speculate"
	// StreamEventSkip marks a speculative solve skipped because the shared
	// plan cache already covers the partial batch (see Solver.CacheCovers).
	StreamEventSkip = "skip"
	// StreamEventSupersede marks an in-flight speculation canceled because
	// newer arrivals (or a mismatched close) made its partial batch stale.
	StreamEventSupersede = "supersede"
	// StreamEventReuse marks a close served from a speculative result
	// instead of a fresh solve.
	StreamEventReuse = "reuse"
)

// DefaultWatermarks are the batch-fill fractions at which a Stream with an
// Expect hint launches speculative solves. The final append (100%) always
// triggers one more, so the full-batch solve overlaps the open→close gap.
var DefaultWatermarks = []float64{0.25, 0.50, 0.75, 0.90}

// DefaultMinSpeculate is the smallest partial batch a Stream without an
// Expect hint will speculate on.
const DefaultMinSpeculate = 8

// StreamConfig configures a streaming session.
type StreamConfig struct {
	// Expect is the anticipated sequence count. When set, speculation fires
	// as the batch crosses each Watermarks fraction of Expect (plus once at
	// Expect itself, so the final solve overlaps the append→close gap).
	// Zero falls back to growth-triggered speculation: a new speculative
	// solve whenever the batch has grown ~50% since the last one.
	Expect int
	// Watermarks are the batch-fill fractions (0, 1] that trigger
	// speculation when Expect is set; empty takes DefaultWatermarks.
	Watermarks []float64
	// Disabled turns speculation off entirely: Close runs a plain cold
	// solve, byte-identical to SolveContext on the accumulated batch.
	Disabled bool
	// Observe, when non-nil, receives one call per StreamEvent* constant as
	// the session speculates, skips, supersedes and reuses.
	Observe func(event string)
}

// StreamStats is a point-in-time snapshot of one session's speculation
// activity.
type StreamStats struct {
	// Appended is the total sequence count ingested so far.
	Appended int `json:"appended"`
	// Speculations counts speculative solves launched (including later-
	// canceled ones); Skipped counts those avoided by the cache probe, and
	// Superseded those canceled by newer arrivals or a mismatched close.
	Speculations int64 `json:"speculations"`
	Skipped      int64 `json:"skipped"`
	Superseded   int64 `json:"superseded"`
	// Reused reports that Close was served from a speculative result
	// without running a fresh solve.
	Reused bool `json:"reused"`
	// WarmHits counts micro-batches the warm store satisfied across the
	// session's solves (speculative and final).
	WarmHits int64 `json:"warmHits"`
}

// Stream is one streaming planning session over a Solver: Append ingests
// sequence lengths (concurrency-safe), watermark crossings launch background
// speculative solves, and Close runs the final solve warm-started from the
// best incumbent. A Stream must not outlive its Solver.
type Stream struct {
	s   *Solver
	cfg StreamConfig

	ctx    context.Context // parent of every speculative solve
	cancel context.CancelFunc

	mu         sync.Mutex
	lens       []int
	closed     bool
	thresholds []int // sorted trigger counts when Expect is set
	nextWM     int   // first threshold not yet crossed
	lastSpec   int   // batch size at the last speculation (growth mode)
	inc        *incumbent
	spec       *speculation
	stats      StreamStats
}

// speculation is one in-flight speculative solve. res/inc/err are written
// before done is closed; readers must wait on done first.
type speculation struct {
	sig    []int32
	key    uint64
	cancel context.CancelFunc
	done   chan struct{}
	res    Result
	inc    *incumbent
	err    error
}

// NewStream opens a streaming session on the solver.
func NewStream(s *Solver, cfg StreamConfig) *Stream {
	if len(cfg.Watermarks) == 0 {
		cfg.Watermarks = DefaultWatermarks
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &Stream{s: s, cfg: cfg, ctx: ctx, cancel: cancel}
	if cfg.Expect > 0 {
		seen := map[int]bool{cfg.Expect: true}
		for _, w := range cfg.Watermarks {
			if w <= 0 || w > 1 {
				continue
			}
			c := int(math.Ceil(w * float64(cfg.Expect)))
			if c >= 1 {
				seen[c] = true
			}
		}
		for c := range seen {
			st.thresholds = append(st.thresholds, c)
		}
		sort.Ints(st.thresholds)
	}
	return st
}

// Append ingests sequence lengths and returns the session's total count. It
// is safe to call concurrently; a watermark crossing launches one background
// speculative solve for the current partial batch, canceling any in-flight
// speculation it supersedes.
func (st *Stream) Append(lens ...int) (int, error) {
	for _, l := range lens {
		if l <= 0 {
			return 0, fmt.Errorf("solver: non-positive sequence length %d", l)
		}
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return 0, ErrStreamClosed
	}
	st.lens = append(st.lens, lens...)
	total := len(st.lens)
	st.stats.Appended = total
	trigger := st.shouldSpeculateLocked(total)
	var snapshot []int
	if trigger {
		snapshot = append([]int(nil), st.lens...)
	}
	st.mu.Unlock()
	if trigger {
		st.speculate(snapshot)
	}
	return total, nil
}

// shouldSpeculateLocked decides whether this append triggers speculation.
// Crossing several watermarks in one append fires a single speculation (for
// the freshest snapshot). Past the Expect hint — or without one — the batch
// re-speculates each time it grows ~50%.
func (st *Stream) shouldSpeculateLocked(total int) bool {
	if st.cfg.Disabled {
		return false
	}
	if st.nextWM < len(st.thresholds) {
		fired := false
		for st.nextWM < len(st.thresholds) && total >= st.thresholds[st.nextWM] {
			st.nextWM++
			fired = true
		}
		if fired {
			st.lastSpec = total
		}
		return fired
	}
	if st.cfg.Expect <= 0 && total < DefaultMinSpeculate {
		return false
	}
	if st.lastSpec > 0 && total < st.lastSpec+(st.lastSpec+1)/2 {
		return false
	}
	st.lastSpec = total
	return true
}

// speculate launches a background solve of the snapshot, warm-started from
// the current incumbent, superseding any in-flight speculation first.
func (st *Stream) speculate(snapshot []int) {
	sig, key := Signature(snapshot)
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	if st.spec != nil {
		st.spec.cancel()
		st.spec = nil
		st.stats.Superseded++
		st.mu.Unlock()
		st.observe(StreamEventSupersede)
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return
		}
	}
	prev := st.inc
	sctx, cancel := context.WithCancel(st.ctx)
	sp := &speculation{sig: sig, key: key, cancel: cancel, done: make(chan struct{})}
	st.spec = sp
	st.mu.Unlock()

	go func() {
		defer close(sp.done)
		defer cancel()
		if st.s.CacheCovers(snapshot) {
			// The shared cache already holds plans for every micro-batch
			// this partial batch would blast into: a speculative pass would
			// only re-derive them, so skip it and count the waste avoided.
			st.s.stats.skipped.Add(1)
			sp.err = errSpeculationSkipped
			st.mu.Lock()
			st.stats.Skipped++
			if st.spec == sp {
				st.spec = nil
			}
			st.mu.Unlock()
			st.observe(StreamEventSkip)
			return
		}
		st.mu.Lock()
		st.stats.Speculations++
		st.mu.Unlock()
		st.observe(StreamEventSpeculate)
		_, span := obs.Start(sctx, "solver.speculate")
		span.SetAttr("seqs", len(snapshot))
		res, inc, err := st.s.solveWarm(sctx, snapshot, prev, true)
		if err != nil {
			span.SetError(err)
		}
		span.End()
		sp.res, sp.inc, sp.err = res, inc, err
		st.mu.Lock()
		if err == nil {
			st.inc = inc
			st.stats.WarmHits += int64(inc.warmHits)
		}
		if st.spec == sp {
			st.spec = nil
		}
		st.mu.Unlock()
	}()
}

// errSpeculationSkipped marks a speculation resolved by the cache probe
// instead of a solve; Close falls through to its warm path on it.
var errSpeculationSkipped = fmt.Errorf("solver: speculation skipped, cache covers batch")

// Close seals the session and returns the plan for everything appended.
// With speculation enabled the solve is warm: an in-flight speculation of
// the exact closed multiset is awaited and reused, a completed one is reused
// directly, and otherwise a fresh solve warm-starts from the incumbent's
// micro-plan store. With speculation disabled (or nothing to reuse) this is
// exactly SolveContext, and the returned plans are byte-identical to the
// cold path's. Close and Append must not be assumed idempotent: the second
// Close returns ErrStreamClosed.
func (st *Stream) Close(ctx context.Context) (Result, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return Result{}, ErrStreamClosed
	}
	st.closed = true
	final := st.lens
	sp := st.spec
	st.spec = nil
	st.mu.Unlock()

	if st.cfg.Disabled {
		defer st.cancel()
		return st.s.SolveContext(ctx, final)
	}
	sig, key := Signature(final)
	if sp != nil {
		if sp.key == key && SigsEqual(sp.sig, sig) {
			// The in-flight speculation is solving exactly the closed
			// multiset (the Expect hint fires it with the final append):
			// await it instead of solving again.
			select {
			case <-sp.done:
			case <-ctx.Done():
				sp.cancel()
				st.cancel()
				return Result{}, ctx.Err()
			}
			if sp.err == nil {
				st.noteReuse()
				st.cancel()
				st.s.publishStore(sp.inc.store)
				return sp.res, nil
			}
			// Canceled, skipped, or failed: fall through to the warm solve.
		} else {
			sp.cancel()
			st.mu.Lock()
			st.stats.Superseded++
			st.mu.Unlock()
			st.observe(StreamEventSupersede)
		}
	}
	st.mu.Lock()
	inc := st.inc
	st.mu.Unlock()
	defer st.cancel()
	if inc != nil && inc.key == key && SigsEqual(inc.sig, sig) {
		st.noteReuse()
		st.s.publishStore(inc.store)
		return inc.res, nil
	}
	res, ninc, err := st.s.solveWarm(ctx, final, inc, false)
	if err != nil {
		return Result{}, err
	}
	st.mu.Lock()
	st.inc = ninc
	st.stats.WarmHits += int64(ninc.warmHits)
	st.mu.Unlock()
	return res, nil
}

func (st *Stream) noteReuse() {
	st.mu.Lock()
	st.stats.Reused = true
	st.mu.Unlock()
	st.observe(StreamEventReuse)
}

// Cancel abandons the session: in-flight speculation stops and further
// Append/Close calls return ErrStreamClosed. Safe to call repeatedly and
// concurrently with Append/Close (one of them wins the session).
func (st *Stream) Cancel() {
	st.mu.Lock()
	st.closed = true
	sp := st.spec
	st.spec = nil
	st.mu.Unlock()
	if sp != nil {
		sp.cancel()
	}
	st.cancel()
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

// Stats returns a snapshot of the session's speculation activity.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

func (st *Stream) observe(ev string) {
	if st.cfg.Observe != nil {
		st.cfg.Observe(ev)
	}
}

// incumbent is the state a speculative solve hands to the next one and to
// the final close-time solve: the partial batch's exact signature, its
// Result, and the exact-signature micro-plan warm store accumulated while
// producing it.
type incumbent struct {
	sig      []int32
	key      uint64
	res      Result
	store    *microStore
	warmHits int // micro-batches the warm store satisfied while producing it
}

// solveWarm is SolveContext warm-started from a previous (typically
// speculative) solve's incumbent. The returned plans are byte-identical to a
// cold solve under the same shared-cache state: an incumbent whose batch
// multiset equals this one short-circuits to its Result (the solver is
// deterministic per multiset), and otherwise the solve runs normally with
// its micro-batches memoized by the incumbent's exact-signature warm store.
// The second return is the new incumbent for chaining; a nil incumbent
// degrades to a plain cold solve. Speculative solves additionally withhold
// their plans from the shared cache (partial-batch shapes must not leak into
// the rounded cache).
func (s *Solver) solveWarm(ctx context.Context, batch []int, inc *incumbent, speculative bool) (Result, *incumbent, error) {
	sig, key := Signature(batch)
	if inc != nil && inc.key == key && SigsEqual(inc.sig, sig) {
		if !speculative {
			s.publishStore(inc.store)
		}
		return inc.res, inc, nil
	}
	warm := &warmState{next: newMicroStore(), speculative: speculative}
	if inc != nil {
		warm.prev = inc.store
	}
	res, err := s.solve(ctx, batch, warm)
	if err != nil {
		return Result{}, nil, err
	}
	return res, &incumbent{sig: sig, key: key, res: res, store: warm.next, warmHits: warm.hits}, nil
}

// publishStore publishes a reused incumbent's micro-plan store into the
// shared cache. The store holds one plan per exact micro signature the
// speculative solve answered — every micro-batch its walk reached, which
// covers the set a cold solve of the same batch would have Put — so after a
// reuse the cache covers the batch as if it had been solved cold.
func (s *Solver) publishStore(ms *microStore) {
	if s.Cache == nil || ms == nil {
		return
	}
	ms.mu.Lock()
	entries := make([]storeEntry, 0, len(ms.m))
	for _, e := range ms.m {
		entries = append(entries, e)
	}
	ms.mu.Unlock()
	for _, e := range entries {
		lens := make([]int, len(e.sig))
		for i, v := range e.sig {
			lens[i] = int(v)
		}
		s.Cache.Put(lens, e.plan)
	}
}

// warmState threads the warm store through one solve: prev is the previous
// incumbent's memo (read), next accumulates this solve's micro-batch
// outcomes for the incumbent it produces, and speculative suppresses
// shared-cache writes.
type warmState struct {
	prev        *microStore
	next        *microStore
	speculative bool
	hits        int
}

// hit probes the previous incumbent's store; hits are copied forward into
// the next store so warm state survives chained speculations.
func (w *warmState) hit(sig []int32, key uint64) (planner.MicroPlan, bool) {
	if w.prev == nil {
		return planner.MicroPlan{}, false
	}
	p, ok := w.prev.get(sig, key)
	if !ok {
		return planner.MicroPlan{}, false
	}
	w.hits++
	w.next.put(sig, key, p)
	return p, true
}

func (w *warmState) record(sig []int32, key uint64, p planner.MicroPlan) {
	w.next.put(sig, key, p)
}

// microStore is an exact-signature micro-plan memo: the per-session warm
// store carried between speculative solves. Unlike the shared PlanCache it
// never retargets — a hit returns the plan verbatim, which is what makes
// warm-started finals byte-identical to cold solves.
type microStore struct {
	mu sync.Mutex
	m  map[uint64]storeEntry
}

type storeEntry struct {
	sig  []int32
	plan planner.MicroPlan
}

func newMicroStore() *microStore {
	return &microStore{m: make(map[uint64]storeEntry)}
}

func (ms *microStore) get(sig []int32, key uint64) (planner.MicroPlan, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	e, ok := ms.m[key]
	if !ok || !SigsEqual(e.sig, sig) {
		return planner.MicroPlan{}, false
	}
	return e.plan, true
}

func (ms *microStore) put(sig []int32, key uint64, p planner.MicroPlan) {
	ms.mu.Lock()
	ms.m[key] = storeEntry{sig: sig, plan: p}
	ms.mu.Unlock()
}
