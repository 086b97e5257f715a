package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/sim"
	"flexsp/internal/solver"
	"flexsp/internal/workload"
)

func base64(t *testing.T, m costmodel.ModelConfig) costmodel.Coeffs {
	t.Helper()
	return costmodel.Profile(m, cluster.A100Cluster(64))
}

func TestNewPartition(t *testing.T) {
	base := base64(t, costmodel.GPT30B) // 60 layers
	for _, pp := range []int{1, 2, 4, 8} {
		p, err := New(base, pp, 4)
		if err != nil {
			t.Fatalf("New(pp=%d): %v", pp, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("pp=%d: %v", pp, err)
		}
		// Balanced: layer counts differ by at most one.
		lo, hi := p.Stages[0].Layers, p.Stages[0].Layers
		for _, s := range p.Stages {
			if s.Layers < lo {
				lo = s.Layers
			}
			if s.Layers > hi {
				hi = s.Layers
			}
		}
		if hi-lo > 1 {
			t.Errorf("pp=%d: unbalanced stages (%d..%d layers)", pp, lo, hi)
		}
		// 1F1B in-flight: min(p−s, m).
		for si, s := range p.Stages {
			want := pp - si
			if want > 4 {
				want = 4
			}
			if s.InFlight != want {
				t.Errorf("pp=%d stage %d: InFlight = %d, want %d", pp, si, s.InFlight, want)
			}
		}
	}
	for _, bad := range []struct{ pp, m int }{{0, 1}, {-1, 1}, {61, 1}, {3, 1}, {2, 0}} {
		if _, err := New(base, bad.pp, bad.m); err == nil {
			t.Errorf("New(pp=%d, m=%d) = nil error", bad.pp, bad.m)
		}
	}
}

func uniformDurations(p, m int, f, b float64) Durations {
	d := Durations{F: make([][]float64, p), B: make([][]float64, p), P2P: make([]float64, m)}
	for s := 0; s < p; s++ {
		d.F[s] = make([]float64, m)
		d.B[s] = make([]float64, m)
		for j := 0; j < m; j++ {
			d.F[s][j], d.B[s][j] = f, b
		}
	}
	return d
}

// For uniform stages and no transfer latency the 1F1B makespan and bubble
// have closed forms: T = (m+p−1)(t_f+t_b), bubble = (p−1)(t_f+t_b).
func TestSimulate1F1BClosedForm(t *testing.T) {
	const f, b = 0.3, 0.6
	for _, tc := range []struct{ p, m int }{{1, 1}, {1, 6}, {2, 4}, {4, 8}, {4, 1}, {8, 16}, {8, 3}} {
		res, err := Simulate1F1B(uniformDurations(tc.p, tc.m, f, b))
		if err != nil {
			t.Fatalf("p=%d m=%d: %v", tc.p, tc.m, err)
		}
		want := float64(tc.m+tc.p-1) * (f + b)
		if math.Abs(res.Time-want) > 1e-9 {
			t.Errorf("p=%d m=%d: makespan %.3f, want %.3f", tc.p, tc.m, res.Time, want)
		}
		wantBubble := float64(tc.p-1) * (f + b)
		if math.Abs(res.Bubble-wantBubble) > 1e-9 {
			t.Errorf("p=%d m=%d: bubble %.3f, want closed form %.3f", tc.p, tc.m, res.Bubble, wantBubble)
		}
	}
}

// Schedule invariants on arbitrary durations: a stage never runs two ops at
// once, every op runs exactly once, and cross-stage dependencies (including
// transfer latency) are respected.
func TestSimulate1F1BInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := 1 + rng.Intn(8)
		m := 1 + rng.Intn(12)
		d := uniformDurations(p, m, 0, 0)
		for s := 0; s < p; s++ {
			for j := 0; j < m; j++ {
				d.F[s][j] = 0.1 + rng.Float64()
				d.B[s][j] = 0.1 + 2*rng.Float64()
			}
		}
		for j := 0; j < m; j++ {
			d.P2P[j] = rng.Float64() * 0.2
		}
		res, err := Simulate1F1B(d)
		if err != nil {
			t.Fatalf("p=%d m=%d: %v", p, m, err)
		}
		if len(res.Events) != 2*p*m {
			t.Fatalf("p=%d m=%d: %d events, want %d", p, m, len(res.Events), 2*p*m)
		}
		fEnd := make([][]float64, p)
		bEnd := make([][]float64, p)
		lastEnd := make([]float64, p)
		seen := map[[3]int]bool{}
		for s := 0; s < p; s++ {
			fEnd[s] = make([]float64, m)
			bEnd[s] = make([]float64, m)
		}
		// Events are appended in execution order per stage; check
		// non-overlap against each stage's running end time.
		for _, e := range res.Events {
			key := [3]int{e.Stage, e.Micro, int(e.Kind)}
			if seen[key] {
				t.Fatalf("op %v executed twice", key)
			}
			seen[key] = true
			if e.Start < lastEnd[e.Stage]-1e-9 {
				t.Fatalf("stage %d runs two micro-batches simultaneously (start %.3f < busy until %.3f)",
					e.Stage, e.Start, lastEnd[e.Stage])
			}
			lastEnd[e.Stage] = e.End
			if e.Kind == Forward {
				fEnd[e.Stage][e.Micro] = e.End
			} else {
				bEnd[e.Stage][e.Micro] = e.End
			}
		}
		for _, e := range res.Events {
			switch e.Kind {
			case Forward:
				if e.Stage > 0 && e.Start < fEnd[e.Stage-1][e.Micro]+d.P2P[e.Micro]-1e-9 {
					t.Fatalf("F(%d,%d) started before upstream forward + transfer", e.Stage, e.Micro)
				}
			case Backward:
				if e.Stage < p-1 && e.Start < bEnd[e.Stage+1][e.Micro]+d.P2P[e.Micro]-1e-9 {
					t.Fatalf("B(%d,%d) started before downstream backward + transfer", e.Stage, e.Micro)
				}
				if e.Start < fEnd[e.Stage][e.Micro]-1e-9 {
					t.Fatalf("B(%d,%d) started before its own forward", e.Stage, e.Micro)
				}
			}
		}
	}
}

// A one-stage pipeline is the flat system: Execute must agree with
// sim.ExecuteIteration on the same plans.
func TestExecuteFlatConsistency(t *testing.T) {
	base := base64(t, costmodel.GPT7B)
	rng := rand.New(rand.NewSource(3))
	batch := workload.CommonCrawl().Batch(rng, 64, 128<<10)
	sv := solver.New(planner.New(base))
	res, err := sv.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sim.ExecuteIteration(base, res.Plans, sim.Options{IncludeZeRO: true})
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := New(base, 1, len(res.Plans))
	if err != nil {
		t.Fatal(err)
	}
	plans := make([][]planner.MicroPlan, len(res.Plans))
	for j, mp := range res.Plans {
		plans[j] = []planner.MicroPlan{mp}
	}
	sched, err := pipe.Execute(plans, Options{IncludeZeRO: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sched.Time-flat.Time) / flat.Time; rel > 1e-9 {
		t.Fatalf("PP=1 Execute %.4fs != flat executor %.4fs (rel %.2g)", sched.Time, flat.Time, rel)
	}
	if sched.BubbleFrac != 0 {
		t.Fatalf("PP=1 has a bubble: %v", sched.BubbleFrac)
	}
}

// Hot switching across stages: re-executing the same pipeline plans against
// the same pool creates no new communicators, and every acquired range stays
// inside its stage's device block.
func TestExecutePoolReuse(t *testing.T) {
	base := base64(t, costmodel.GPT7B)
	jp := NewPlanner(base)
	jp.Degrees = []int{4}
	rng := rand.New(rand.NewSource(5))
	batch := workload.CommonCrawl().Batch(rng, 48, 96<<10)
	res, err := jp.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewGroupPool(64, cluster.DefaultGroupCreation)
	first, err := res.Pipe.Execute(res.Plans, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if first.GroupCreation <= 0 {
		t.Fatal("cold execution created no communicators")
	}
	second, err := res.Pipe.Execute(res.Plans, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if second.GroupCreation != 0 {
		t.Fatalf("warm execution created communicators: %v", second.GroupCreation)
	}
	if second.Time >= first.Time {
		t.Fatal("warm execution should be faster than cold")
	}
}

// The joint planner sweeps PP=1 too, so it can never lose to the flat plan
// under the same simulated execution.
func TestJointPlannerMatchesOrBeatsFlat(t *testing.T) {
	base := base64(t, costmodel.GPT30B)
	jp := NewPlanner(base)
	jp.IncludeZeRO = true
	rng := rand.New(rand.NewSource(11))
	batch := workload.CommonCrawl().Batch(rng, 64, 192<<10)
	res, err := jp.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	var flat *Candidate
	for i := range res.Candidates {
		if res.Candidates[i].PP == 1 {
			flat = &res.Candidates[i]
		}
	}
	if flat == nil || !flat.Feasible {
		t.Fatal("PP=1 candidate missing or infeasible")
	}
	if res.Time > flat.Time*(1+1e-9) {
		t.Fatalf("joint plan %.3fs loses to flat %.3fs", res.Time, flat.Time)
	}
	if res.Sched.PeakMemFrac > 1 {
		t.Fatalf("joint plan exceeds memory: %.2f", res.Sched.PeakMemFrac)
	}
	t.Logf("joint PP=%d M=%d %.2fs (flat %.2fs, bubble %.1f%%)",
		res.Pipe.PP, res.Pipe.M, res.Time, flat.Time, 100*res.Sched.BubbleFrac)
}

// With the Ulysses head-count cap, a sequence can exceed the largest flat SP
// group's memory while still fitting a pipeline stage (fewer resident layers
// per device). The joint planner must find that plan; the flat solver must
// fail.
func TestPipelineFitsWhereFlatDoesNot(t *testing.T) {
	base := base64(t, costmodel.GPT30B).WithHeadsCap() // degree ≤ 32
	per := base.MaxTokensPerDevice()
	long := 33 * per // beyond the largest capped flat group (32 devices)
	batch := []int{long, 8 << 10, 8 << 10, 16 << 10}

	if _, err := solver.New(planner.New(base)).Solve(batch); err == nil {
		t.Fatal("flat solver unexpectedly fit the long sequence")
	}

	jp := NewPlanner(base)
	res, err := jp.Solve(batch)
	if err != nil {
		t.Fatalf("joint planner: %v", err)
	}
	if res.Pipe.PP <= 1 {
		t.Fatalf("joint planner chose PP=%d, want > 1", res.Pipe.PP)
	}
	if res.Sched.OOM || res.Sched.PeakMemFrac > 1 {
		t.Fatalf("joint plan exceeds memory: peak %.2f", res.Sched.PeakMemFrac)
	}
	for i := range res.Candidates {
		if res.Candidates[i].PP == 1 && res.Candidates[i].Feasible {
			t.Fatal("PP=1 should be infeasible under the head cap")
		}
	}
	t.Logf("long=%d tokens fits at PP=%d M=%d (%.1fs, peak mem %.0f%%)",
		long, res.Pipe.PP, res.Pipe.M, res.Time, 100*res.Sched.PeakMemFrac)
}

// Stage plans must cover the same sequences on every stage of a micro-batch.
func TestJointPlanCoverage(t *testing.T) {
	base := base64(t, costmodel.GPT13B)
	jp := NewPlanner(base)
	jp.Degrees = []int{2}
	rng := rand.New(rand.NewSource(17))
	batch := workload.GitHub().Batch(rng, 32, 64<<10)
	res, err := jp.Solve(batch)
	if err != nil {
		t.Fatal(err)
	}
	for j, stages := range res.Plans {
		var lens []int
		for _, g := range stages[0].Groups {
			lens = append(lens, g.Lens...)
		}
		for s, mp := range stages {
			if err := mp.Validate(res.Pipe.Stages[s].Coeffs.Pricing(), lens); err != nil {
				t.Fatalf("micro %d stage %d: %v", j, s, err)
			}
		}
	}
}
