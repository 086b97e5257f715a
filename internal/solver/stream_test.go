package solver

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"

	"flexsp/internal/blaster"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/workload"
)

func blastFor(s *Solver, batch []int, m int) ([][]int, error) {
	if s.Sort {
		return blaster.Blast(batch, m)
	}
	return blaster.BlastUnsorted(batch, m)
}

func newStreamSolver() *Solver {
	c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64))
	s := New(planner.New(c))
	s.Cache = NewPlanCache(1024, 256)
	return s
}

func streamBatch(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	return workload.CommonCrawl().Batch(rng, n, 64<<10)
}

// plansJSON canonicalizes the plan content of a result for byte-identity
// comparisons (SolveWall and Trials vary with scheduling, plans must not).
func plansJSON(t *testing.T, res Result) string {
	t.Helper()
	buf, err := json.Marshal(struct {
		Plans []planner.MicroPlan
		Time  float64
		M     int
		MMin  int
	}{res.Plans, res.Time, res.M, res.MMin})
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// waitIncumbent polls until the stream's speculative incumbent lands.
func waitIncumbent(t *testing.T, st *Stream) *incumbent {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st.mu.Lock()
		inc := st.inc
		st.mu.Unlock()
		if inc != nil {
			return inc
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("speculative incumbent never completed")
	return nil
}

func TestSolveWarmByteIdenticalToCold(t *testing.T) {
	batch := streamBatch(7, 64)

	cold := newStreamSolver()
	want, err := cold.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	// Speculate on a strict prefix, then warm-solve the full batch: the
	// warm store memoizes each micro-batch's outcome, so the final plans
	// must be byte-identical to the cold solve (both start from a fresh
	// cache).
	warm := newStreamSolver()
	_, inc, err := warm.solveWarm(context.Background(), batch[:48], nil, true)
	if err != nil {
		t.Fatal(err)
	}
	got, inc2, err := warm.solveWarm(context.Background(), batch, inc, false)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := plansJSON(t, got), plansJSON(t, want); g != w {
		t.Fatalf("warm-started plans diverge from cold:\nwarm %s\ncold %s", g, w)
	}
	if inc2.warmHits == 0 {
		t.Fatal("full-batch warm solve hit nothing in the prefix incumbent's store")
	}
	// Cache parity: the final solve publishes warm hits too, so the warm
	// solver's cache must cover the batch exactly like the cold solver's.
	if !warm.CacheCovers(batch) {
		t.Fatal("warm solver's cache does not cover the batch after the final solve")
	}
}

func TestSolveWarmWholeBatchReuse(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(11, 48)
	_, inc, err := s.solveWarm(context.Background(), batch, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// Speculative solves withhold plans from the shared cache.
	if s.CacheCovers(batch) {
		t.Fatal("speculative solve leaked plans into the shared cache")
	}
	res, _, err := s.solveWarm(context.Background(), batch, inc, false)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := plansJSON(t, res), plansJSON(t, inc.res); g != w {
		t.Fatalf("whole-batch reuse did not return the incumbent result:\n%s\n%s", g, w)
	}
	// The reuse path publishes the final plans (publishStore).
	if _, ok := s.Cache.peek(s.Planner.Pricing(), firstMicro(t, s, batch, res.M)); !ok {
		t.Fatal("whole-batch reuse did not publish micro plans to the cache")
	}
}

func firstMicro(t *testing.T, s *Solver, batch []int, m int) []int {
	t.Helper()
	micro, err := blastFor(s, batch, m)
	if err != nil {
		t.Fatal(err)
	}
	return micro[0]
}

func TestCacheCoversAfterColdSolve(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(3, 48)
	if s.CacheCovers(batch) {
		t.Fatal("empty cache claims to cover the batch")
	}
	if _, err := s.SolveContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if !s.CacheCovers(batch) {
		t.Fatal("cache does not cover a batch it just solved")
	}
}

func TestStreamSkipsCoveredSpeculation(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(5, 48)
	if _, err := s.SolveContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	skipBefore := s.Metrics().Skipped

	events := make(chan string, 16)
	st := NewStream(s, StreamConfig{
		Expect:     len(batch),
		Watermarks: []float64{1.0},
		Observe:    func(ev string) { events <- ev },
	})
	if _, err := st.Append(batch...); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev != StreamEventSkip {
			t.Fatalf("event %q, want %q", ev, StreamEventSkip)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no stream event after append")
	}
	if got := s.Metrics().Skipped; got != skipBefore+1 {
		t.Fatalf("skipped counter %d, want %d", got, skipBefore+1)
	}
	res, err := st.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Skipped != 1 {
		t.Fatalf("session skipped %d, want 1", st.Stats().Skipped)
	}
	if len(res.Plans) == 0 {
		t.Fatal("close returned no plans")
	}
}

func TestStreamCloseReusesFinalSpeculation(t *testing.T) {
	batch := streamBatch(13, 64)
	cold := newStreamSolver()
	want, err := cold.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	s := newStreamSolver()
	st := NewStream(s, StreamConfig{Expect: len(batch)})
	for _, l := range batch {
		if _, err := st.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	// The Expect threshold fired a full-batch speculation with the final
	// append; Close must await and reuse it rather than solving again.
	got, err := st.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stats().Reused {
		t.Fatalf("close did not reuse the final speculation: %+v", st.Stats())
	}
	if g, w := plansJSON(t, got), plansJSON(t, want); g != w {
		t.Fatalf("streamed plans diverge from cold:\n%s\n%s", g, w)
	}
	if !s.CacheCovers(batch) {
		t.Fatal("reused close did not leave the cache covering the batch")
	}
}

func TestStreamDisabledMatchesCold(t *testing.T) {
	batch := streamBatch(17, 48)
	cold := newStreamSolver()
	want, err := cold.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	s := newStreamSolver()
	st := NewStream(s, StreamConfig{Expect: len(batch), Disabled: true})
	if _, err := st.Append(batch...); err != nil {
		t.Fatal(err)
	}
	got, err := st.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Speculations != 0 || stats.Reused {
		t.Fatalf("disabled stream speculated: %+v", stats)
	}
	if g, w := plansJSON(t, got), plansJSON(t, want); g != w {
		t.Fatalf("disabled stream diverges from cold:\n%s\n%s", g, w)
	}
}

func TestStreamClosedErrors(t *testing.T) {
	s := newStreamSolver()
	st := NewStream(s, StreamConfig{Disabled: true})
	if _, err := st.Append(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(0); err == nil {
		t.Fatal("append accepted a non-positive length")
	}
	if _, err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(4096); err != ErrStreamClosed {
		t.Fatalf("append after close: %v, want ErrStreamClosed", err)
	}
	if _, err := st.Close(context.Background()); err != ErrStreamClosed {
		t.Fatalf("second close: %v, want ErrStreamClosed", err)
	}

	st2 := NewStream(s, StreamConfig{Disabled: true})
	st2.Cancel()
	st2.Cancel() // idempotent
	if _, err := st2.Append(4096); err != ErrStreamClosed {
		t.Fatalf("append after cancel: %v, want ErrStreamClosed", err)
	}
}

func TestStreamGrowthTriggerWithoutExpect(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(23, 64)
	var mu sync.Mutex
	specs := 0
	st := NewStream(s, StreamConfig{Observe: func(ev string) {
		if ev == StreamEventSpeculate || ev == StreamEventSkip {
			mu.Lock()
			specs++
			mu.Unlock()
		}
	}})
	for _, l := range batch {
		if _, err := st.Append(l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// 8 (DefaultMinSpeculate), then +50% growth: 12, 18, 27, 41, 62.
	if specs < 3 {
		t.Fatalf("growth trigger speculated %d times, want >= 3", specs)
	}
}

// TestStreamConcurrentAppend exercises concurrent appends to one session and
// a close racing watermark-triggered speculation (run with -race).
func TestStreamConcurrentAppend(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(29, 64)
	st := NewStream(s, StreamConfig{Expect: len(batch)})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(batch); i += 4 {
				if _, err := st.Append(batch[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Len() != len(batch) {
		t.Fatalf("stream holds %d sequences, want %d", st.Len(), len(batch))
	}
	res, err := st.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) == 0 {
		t.Fatal("close returned no plans")
	}
	// Whatever interleaving happened, the plan content must match cold.
	cold := newStreamSolver()
	want, err := cold.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := plansJSON(t, res), plansJSON(t, want); g != w {
		t.Fatalf("concurrent-append plans diverge from cold:\n%s\n%s", g, w)
	}
}

// TestStreamCloseRacesSpeculation closes immediately after the append that
// launches speculation, repeatedly, so Close exercises both the await-reuse
// and the cancel-supersede paths under -race.
func TestStreamCloseRacesSpeculation(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(31, 32)
	for i := 0; i < 8; i++ {
		st := NewStream(s, StreamConfig{Expect: len(batch), Watermarks: []float64{0.5}})
		half := len(batch) / 2
		if _, err := st.Append(batch[:half]...); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			// Half the runs close on the partial batch the in-flight
			// speculation is solving (await-reuse path)...
			res, err := st.Close(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Plans) == 0 {
				t.Fatal("close returned no plans")
			}
			continue
		}
		// ...and half append more first, so the speculation is superseded
		// or mismatched at close.
		if _, err := st.Append(batch[half:]...); err != nil {
			t.Fatal(err)
		}
		res, err := st.Close(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Plans) == 0 {
			t.Fatal("close returned no plans")
		}
	}
}
