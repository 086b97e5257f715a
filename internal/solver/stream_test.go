package solver

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

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

// cachedPlan reads pc's entry for a micro-batch without moving it in the
// LRU or counting a hit or miss.
func cachedPlan(pc *PlanCache, lens []int) (planner.MicroPlan, bool) {
	sig, key := pc.signature(lens)
	sh := pc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok || !SigsEqual(el.Value.(*cacheEntry).sig, sig) {
		return planner.MicroPlan{}, false
	}
	return el.Value.(*cacheEntry).plan, true
}

// requireCacheLikeCold fails unless got's plan cache holds exactly cold's
// entry (or, like cold, none) for every micro-batch of every trial cold's
// solve of batch explored, and as many entries in all.
func requireCacheLikeCold(t *testing.T, got, cold *Solver, batch []int, coldRes Result) {
	t.Helper()
	for _, tr := range coldRes.Trials {
		micro, err := blastFor(cold, batch, tr.M)
		if err != nil {
			t.Fatal(err)
		}
		for _, lens := range micro {
			w, wok := cachedPlan(cold.Cache, lens)
			g, gok := cachedPlan(got.Cache, lens)
			if wok != gok {
				t.Fatalf("m=%d micro-batch of %d: cached %v, cold solver cached %v", tr.M, len(lens), gok, wok)
			}
			if gj, wj := plansJSON(t, Result{Plans: []planner.MicroPlan{g}}), plansJSON(t, Result{Plans: []planner.MicroPlan{w}}); gj != wj {
				t.Fatalf("m=%d cache entry differs from the cold solver's:\n%s\n%s", tr.M, gj, wj)
			}
		}
	}
	if g, w := got.Cache.Len(), cold.Cache.Len(); g != w {
		t.Fatalf("cache holds %d entries, cold solver's %d", g, w)
	}
}

func TestStreamCloseReusesFinalSpeculation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch []int
	}{
		{"commoncrawl-64K", streamBatch(13, 64)},
		// At 192K this batch blasts two micro-batches of one solve into the
		// same rounded signature, so a cold solve answers the second from
		// the cache entry it wrote for the first.
		{"commoncrawl-192K", workload.CommonCrawl().Batch(rand.New(rand.NewSource(11)), 64, 192<<10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := tc.batch
			cold := newStreamSolver()
			want, err := cold.SolveContext(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}

			s := newStreamSolver()
			st := NewStream(s, len(batch))
			for _, l := range batch {
				if _, err := st.Append(l); err != nil {
					t.Fatal(err)
				}
			}
			// The final append started the background solve of the whole
			// batch; Close must await and reuse it rather than solving again.
			got, err := st.Close(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats := st.Stats(); !stats.Reused || stats.Speculations != 1 || stats.Superseded != 0 {
				t.Fatalf("close did not reuse the background solve: %+v", stats)
			}
			if n := s.Metrics().Solves; n != 1 {
				t.Fatalf("solver ran %d solves, want the background one only", n)
			}
			if g, w := plansJSON(t, got), plansJSON(t, want); g != w {
				t.Fatalf("streamed plans diverge from cold:\n%s\n%s", g, w)
			}
			requireCacheLikeCold(t, s, cold, batch, want)
		})
	}
}

// TestStreamOutgrownExpectLeavesNoPrefixPlans grows a session past its
// expected count after the background solve of the prefix has finished: the
// prefix's plans must never reach the cache, and the close solves the grown
// batch like a cold solve.
func TestStreamOutgrownExpectLeavesNoPrefixPlans(t *testing.T) {
	batch := streamBatch(19, 64)
	cold := newStreamSolver()
	want, err := cold.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}

	s := newStreamSolver()
	st := NewStream(s, 48)
	if _, err := st.Append(batch[:48]...); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	bg := st.bg
	st.mu.Unlock()
	if bg == nil {
		t.Fatal("reaching expect started no background solve")
	}
	<-bg.done
	if bg.err != nil || len(bg.held.puts) == 0 {
		t.Fatalf("prefix solve: err %v, %d held writes", bg.err, len(bg.held.puts))
	}
	if _, err := st.Append(batch[48:]...); err != nil {
		t.Fatal(err)
	}
	if n := s.Cache.Len(); n != 0 {
		t.Fatalf("the outgrown prefix solve left %d cache entries", n)
	}
	got, err := st.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Superseded != 1 || stats.Reused || stats.Speculations != 1 {
		t.Fatalf("stats %+v, want one superseded speculation and no reuse", stats)
	}
	if g, w := plansJSON(t, got), plansJSON(t, want); g != w {
		t.Fatalf("outgrown stream diverges from cold:\n%s\n%s", g, w)
	}
	requireCacheLikeCold(t, s, cold, batch, want)
}

func TestStreamDisabledMatchesCold(t *testing.T) {
	batch := streamBatch(17, 48)
	cold := newStreamSolver()
	want, err := cold.SolveContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	// Without an expected count no background solve runs: Close solves.
	s := newStreamSolver()
	st := NewStream(s, 0)
	if _, err := st.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().Solves; n != 0 {
		t.Fatalf("%d solves before close, want 0", n)
	}
	got, err := st.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Speculations != 0 || stats.Reused {
		t.Fatalf("stream without expect speculated: %+v", stats)
	}
	if g, w := plansJSON(t, got), plansJSON(t, want); g != w {
		t.Fatalf("stream without expect diverges from cold:\n%s\n%s", g, w)
	}
	requireCacheLikeCold(t, s, cold, batch, want)
}

func TestStreamClosedErrors(t *testing.T) {
	s := newStreamSolver()
	st := NewStream(s, 0)
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

	st2 := NewStream(s, 1)
	if _, err := st2.Append(4096); err != nil {
		t.Fatal(err)
	}
	st2.Cancel()
	st2.Cancel() // idempotent
	if _, err := st2.Append(4096); err != ErrStreamClosed {
		t.Fatalf("append after cancel: %v, want ErrStreamClosed", err)
	}
	if _, err := st2.Close(context.Background()); err != ErrStreamClosed {
		t.Fatalf("close after cancel: %v, want ErrStreamClosed", err)
	}
}

// TestStreamConcurrentAppend exercises concurrent appends to one session,
// the last of which starts the background solve (run with -race).
func TestStreamConcurrentAppend(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(29, 64)
	st := NewStream(s, len(batch))
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
	if stats := st.Stats(); !stats.Reused || stats.Speculations != 1 {
		t.Fatalf("close did not reuse the background solve: %+v", stats)
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

// TestStreamCloseRacesSpeculation closes right after the append that
// starts the background solve, repeatedly, so Close exercises both the
// await-reuse path and, after one more append, the supersede path under
// -race.
func TestStreamCloseRacesSpeculation(t *testing.T) {
	s := newStreamSolver()
	batch := streamBatch(31, 32)
	half := len(batch) / 2
	for i := 0; i < 8; i++ {
		st := NewStream(s, half)
		if _, err := st.Append(batch[:half]...); err != nil {
			t.Fatal(err)
		}
		reuse := i%2 == 0
		if !reuse {
			// The batch outgrows the in-flight solve, which is canceled.
			if _, err := st.Append(batch[half:]...); err != nil {
				t.Fatal(err)
			}
		}
		res, err := st.Close(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Plans) == 0 {
			t.Fatal("close returned no plans")
		}
		if stats := st.Stats(); stats.Reused != reuse || stats.Superseded != int64(i%2) {
			t.Fatalf("run %d: stats %+v", i, stats)
		}
	}
}
