package server

import (
	"context"
	"sync"
	"time"

	"flexsp/internal/solver"
)

// planJob identifies one batchable planning request: the length multiset
// plus the strategy/maxCtx coordinates that change the resulting plan, so
// only requests asking for the same plan coalesce.
type planJob struct {
	lens     []int
	strategy string
	maxCtx   int
	// explain asks the pass to attach provenance; it is a pass coordinate
	// because the encoded response differs.
	explain bool
}

// key returns the canonical sorted length signature and the job's pass key,
// which addresses both its batcher pass and its envelope-cache entry. Two
// jobs share a pass only when every coordinate matches: the signature and
// the job fields are re-compared on join, so hash collisions fall back to
// independent passes, never shared plans.
func (j planJob) key() ([]int32, uint64) {
	sig, sigKey := solver.Signature(j.lens)
	return sig, passKey(sigKey, j.strategy, j.maxCtx, j.explain)
}

// passKey folds the pass coordinates (strategy, maxCtx, explain) into the
// exact signature hash with the FNV-1a construction the plan cache uses, so
// one 64-bit key addresses one (batch, strategy, maxCtx, explain) pass.
func passKey(sigKey uint64, strategy string, maxCtx int, explain bool) uint64 {
	h := sigKey
	for _, b := range []byte(strategy) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= uint64(uint32(maxCtx))
	h *= 1099511628211
	if explain {
		h ^= 1
		h *= 1099511628211
	}
	return h
}

// batcher groups compatible requests into one solver pass. Two requests are
// compatible when they carry the same sequence-length multiset and the same
// strategy/maxCtx coordinates — the only sound grouping, since a plan
// depends on the whole batch and on what was asked of it. The first request
// for a job opens a pass and holds it open for the batching window;
// identical requests arriving within the window join the pass; when the
// window closes the opener solves once and every member receives the same
// pre-encoded response bytes, so coalesced responses are byte-identical by
// construction.
//
// Each pass carries a context that is canceled once every member's request
// context is done, so a solve whose consumers all disconnected (or were cut
// off by shutdown) stops at the next trial/micro-batch boundary instead of
// burning planner workers on a response nobody reads.
//
// A window of zero adds no latency and in effect coalesces nothing: the
// opener takes its pass out of the map before solving (see do), so only a
// request arriving between those two steps joins it; one arriving mid-solve
// opens a fresh pass — typically a plan-cache hit — rather than joining the
// solve in flight.
type batcher struct {
	window time.Duration
	// run executes one solver pass under the pass context and returns the
	// encoded response body and HTTP status shared by every member.
	run func(ctx context.Context, job planJob) ([]byte, int)

	mu     sync.Mutex
	passes map[uint64]*pass
}

type pass struct {
	done    chan struct{}
	sig     []int32 // canonical sorted signature (collision guard)
	job     planJob // the opener's job (strategy/maxCtx collision guard)
	members int

	// ctx is canceled when live — the number of member request contexts
	// not yet done — reaches zero.
	ctx    context.Context
	cancel context.CancelFunc
	liveMu sync.Mutex
	live   int

	body   []byte
	status int
}

// addMember counts a member's request context toward the pass lifetime: when
// the last live member disconnects, the pass context is canceled. The
// watcher goroutine exits when the request context is done, which the HTTP
// server guarantees at handler return.
func (p *pass) addMember(ctx context.Context) {
	p.liveMu.Lock()
	p.live++
	p.liveMu.Unlock()
	go func() {
		<-ctx.Done()
		p.liveMu.Lock()
		p.live--
		last := p.live == 0
		p.liveMu.Unlock()
		if last {
			p.cancel()
		}
	}()
}

func newBatcher(window time.Duration, run func(ctx context.Context, job planJob) ([]byte, int)) *batcher {
	return &batcher{window: window, run: run, passes: make(map[uint64]*pass)}
}

// do runs the job through the batcher. It returns the shared response body
// and status, the number of requests the pass served, and whether this
// caller joined another request's pass (true) or opened and ran its own
// (false). A canceled context while waiting returns ctx.Err(); the pass
// itself keeps running while it has other live members.
func (b *batcher) do(ctx context.Context, job planJob) (body []byte, status, members int, joined bool, err error) {
	sig, key := job.key()

	b.mu.Lock()
	if p, ok := b.passes[key]; ok && solver.SigsEqual(sig, p.sig) &&
		job.strategy == p.job.strategy && job.maxCtx == p.job.maxCtx &&
		job.explain == p.job.explain {
		p.members++
		p.addMember(ctx)
		b.mu.Unlock()
		select {
		case <-p.done:
			if p.status == 0 {
				// The opener was canceled before solving; run our own pass.
				return b.do(ctx, job)
			}
			return p.body, p.status, p.members, true, nil
		case <-ctx.Done():
			return nil, 0, 0, true, ctx.Err()
		}
	}
	p := &pass{done: make(chan struct{}), sig: sig, job: job, members: 1}
	// The pass context carries the opener's values (trace span, request ID)
	// but not its cancellation: the pass lives until the LAST member
	// disconnects, tracked by addMember, not until the opener does.
	p.ctx, p.cancel = context.WithCancel(context.WithoutCancel(ctx))
	p.addMember(ctx)
	// A hash collision with a different signature overwrites the map slot;
	// the displaced pass still completes (members hold the *pass directly).
	b.passes[key] = p
	b.mu.Unlock()

	if b.window > 0 {
		t := time.NewTimer(b.window)
		select {
		case <-t.C:
		case <-ctx.Done():
			// The opener is canceled: close the pass so members are not
			// stranded; whoever is waiting re-enters as its own opener.
			t.Stop()
			b.closePass(key, p, nil, 0)
			return nil, 0, 0, false, ctx.Err()
		}
	}

	// Remove the pass before solving so requests arriving mid-solve open a
	// fresh pass (they will typically hit the plan cache) instead of
	// extending this one indefinitely.
	b.mu.Lock()
	if b.passes[key] == p {
		delete(b.passes, key)
	}
	members = p.members
	b.mu.Unlock()

	body, status = b.run(p.ctx, job)
	p.body, p.status = body, status
	close(p.done)
	return body, status, members, false, nil
}

// closePass abandons a pass with the given result (used when the opener's
// context is canceled before the window fires).
func (b *batcher) closePass(key uint64, p *pass, body []byte, status int) {
	b.mu.Lock()
	if b.passes[key] == p {
		delete(b.passes, key)
	}
	b.mu.Unlock()
	p.body, p.status = body, status
	close(p.done)
}
