package planner

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"flexsp/internal/blaster"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/workload"
)

func mixedFleet(t *testing.T, a100, h100 int) costmodel.HeteroCoeffs {
	t.Helper()
	m, err := cluster.MixedCluster(
		cluster.ClassCount{Class: cluster.A100_40G, Devices: a100},
		cluster.ClassCount{Class: cluster.H100, Devices: h100})
	if err != nil {
		t.Fatal(err)
	}
	return costmodel.ProfileMixed(costmodel.GPT7B, m)
}

// heteroBatch builds a deterministic long-tail micro-batch small enough to
// fit the 8–16 device fleets these tests use: mostly 1–4K sequences with an
// occasional 8–24K tail.
func heteroBatch(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	lens := make([]int, n)
	for i := range lens {
		if rng.Intn(8) == 0 {
			lens[i] = 8<<10 + rng.Intn(16<<10)
		} else {
			lens[i] = 1<<10 + rng.Intn(3<<10)
		}
	}
	return lens
}

// sampledMicroBatches draws 64-sequence CommonCrawl, GitHub and Wikipedia
// batches at 192K — each a systematic sample of an eight times larger draw:
// sorted, every eighth length kept, shuffled — and blasts each at M_min to
// M_min+2 under the given token capacity: the micro-batches an Alg. 1 solve
// hands the planner.
func sampledMicroBatches(t testing.TB, seed int64, capacity int) [][]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out [][]int
	for _, d := range []workload.Dataset{workload.CommonCrawl(), workload.GitHub(), workload.Wikipedia()} {
		draw := d.Batch(rng, 8*64, 192<<10)
		sort.Ints(draw)
		batch := make([]int, 64)
		for i := range batch {
			batch[i] = draw[8*i+4]
		}
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		mmin := blaster.MinMicroBatches(batch, capacity)
		for m := mmin; m <= mmin+2; m++ {
			micro, err := blaster.Blast(batch, m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, micro...)
		}
	}
	return out
}

// On a single-class fleet the placement-aware planner must reproduce the
// scalar planner exactly — same groups (degrees, lengths) and makespan —
// and place every group on the lowest-address placement of the plan's
// degrees. 56 devices is the single-class snapshot after one node_down.
func TestHeterogeneousSingleClassPlanMatchesLegacy(t *testing.T) {
	for _, n := range []int{64, 56} {
		m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: n})
		if err != nil {
			t.Fatal(err)
		}
		hc := costmodel.ProfileMixed(costmodel.GPT7B, m)
		c := costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(n))
		legacy, placed := New(c), NewHetero(hc)
		for i, lens := range sampledMicroBatches(t, int64(n), c.ClusterTokenCapacity()) {
			lp, lerr := legacy.Plan(lens)
			pp, perr := placed.Plan(lens)
			if lerr != nil || perr != nil {
				if lerr != perr {
					t.Errorf("%d devices, micro %d: errors %v (legacy) vs %v (placed)", n, i, lerr, perr)
				}
				continue
			}
			if lp.Time != pp.Time || len(lp.Groups) != len(pp.Groups) {
				t.Fatalf("%d devices, micro %d: placed plan %v (%.9g s) != legacy %v (%.9g s)",
					n, i, pp.Groups, pp.Time, lp.Groups, lp.Time)
			}
			var degrees []int
			for gi, g := range pp.Groups {
				lg := lp.Groups[gi]
				if g.Degree != lg.Degree || !reflect.DeepEqual(g.Lens, lg.Lens) {
					t.Fatalf("%d devices, micro %d, group %d: placed %v %v != legacy %v %v",
						n, i, gi, g.Degree, g.Lens, lg.Degree, lg.Lens)
				}
				if lg.Placed() {
					t.Fatalf("%d devices, micro %d: legacy group %v carries range %v", n, i, lg, lg.Range)
				}
				degrees = append(degrees, g.Degree)
			}
			want, err := cluster.PlaceGroups(n, degrees)
			if err != nil {
				t.Fatal(err)
			}
			for gi, g := range pp.Groups {
				if g.Range != want.Ranges[gi] {
					t.Fatalf("%d devices, micro %d, group %d: range %v, lowest-address placement %v",
						n, i, gi, g.Range, want.Ranges[gi])
				}
			}
		}
	}
}

func TestHeterogeneousPlanPlacedValid(t *testing.T) {
	hc := mixedFleet(t, 8, 8)
	pl := NewHetero(hc)
	batch := heteroBatch(7, 24)
	p, err := pl.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(hc.Pricing(), batch); err != nil {
		t.Fatal(err)
	}
	for _, g := range p.Groups {
		if !g.Placed() {
			t.Fatalf("group %v unplaced", g)
		}
	}
}

// The placement-aware plan loads each group knowing which device classes it
// occupies (the H100 half absorbs more tokens). A class-oblivious scheduler
// that maps the same groups onto the wrong regions — here the adversarial
// reversed placement, heavy groups pushed onto the A100-40G half — must
// either run slower or break the 40G memory budget, and may never be faster.
func TestHeterogeneousAwareBeatsObliviousPlacement(t *testing.T) {
	hc := mixedFleet(t, 8, 8)
	pl := NewHetero(hc)
	wins, total := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		batch := heteroBatch(seed, 24)
		p, err := pl.Plan(batch)
		if err != nil {
			t.Fatal(err)
		}
		var degrees []int
		for _, g := range p.Groups {
			degrees = append(degrees, g.Degree)
		}
		rev, err := cluster.PlaceGroupsScored(hc.Mixed.NumDevices(), degrees,
			func(r cluster.DeviceRange) float64 { return float64(r.Start) })
		if err != nil {
			t.Fatal(err)
		}
		revTime, oom := 0.0, false
		for i, g := range p.Groups {
			e := hc.Group(rev.Ranges[i])
			if !e.Fits(g.Lens, g.Degree) {
				oom = true
			}
			if gt := e.GroupTime(g.Lens, g.Degree); gt > revTime {
				revTime = gt
			}
		}
		total++
		if oom {
			wins++ // oblivious placement breaks the 40G budget outright
			continue
		}
		if p.Time > revTime*(1+1e-9) {
			t.Errorf("seed %d: aware %.4f worse than oblivious placement %.4f", seed, p.Time, revTime)
		}
		if p.Time < revTime*(1-1e-6) {
			wins++
		}
	}
	if wins < 3 {
		t.Errorf("aware placement beat the oblivious mapping in only %d of %d batches", wins, total)
	}
}

func TestHeterogeneousPlannerDeterminism(t *testing.T) {
	hc := mixedFleet(t, 8, 8)
	batch := heteroBatch(11, 24)
	a, err := NewHetero(hc).Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHetero(hc).Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic plans:\n%+v\nvs\n%+v", a, b)
	}
}

func TestHeterogeneousGreedyStrategy(t *testing.T) {
	hc := mixedFleet(t, 8, 8)
	pl := NewHetero(hc)
	pl.Strategy = StrategyGreedy
	batch := heteroBatch(2, 16)
	p, err := pl.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(hc.Pricing(), batch); err != nil {
		t.Fatal(err)
	}
	enum, err := NewHetero(hc).Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if enum.Time > p.Time*(1+1e-9) {
		t.Errorf("enum %.4f worse than greedy baseline %.4f", enum.Time, p.Time)
	}
}

func TestHeterogeneousMILPStrategy(t *testing.T) {
	hc := mixedFleet(t, 4, 4)
	pl := NewHetero(hc)
	pl.Strategy = StrategyMILP
	pl.MILPTimeLimit = 2 * time.Second
	batch := heteroBatch(5, 8)
	p, err := pl.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(hc.Pricing(), batch); err != nil {
		t.Fatal(err)
	}
	// Warm-started by the placed enum plan, MILP must not be worse.
	enum, err := NewHetero(hc).Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Time > enum.Time*(1+1e-6) {
		t.Errorf("MILP %.4f worse than its enum warm start %.4f", p.Time, enum.Time)
	}
}

// Validate must reject malformed placed plans with errors, never panic — it
// is the gate callers use against untrusted plans.
func TestHeterogeneousValidatePlacedRejectsWithoutPanic(t *testing.T) {
	hc := mixedFleet(t, 8, 8)
	lens := []int{4 << 10}
	for name, p := range map[string]MicroPlan{
		"out of bounds": {Groups: []Group{
			{Degree: 4, Lens: lens, Range: cluster.DeviceRange{Start: 16, Size: 4}}}},
		"unaligned": {Groups: []Group{
			{Degree: 4, Lens: lens, Range: cluster.DeviceRange{Start: 6, Size: 4}}}},
		"negative start": {Groups: []Group{
			{Degree: 4, Lens: lens, Range: cluster.DeviceRange{Start: -4, Size: 4}}}},
		"degree mismatch": {Groups: []Group{
			{Degree: 8, Lens: lens, Range: cluster.DeviceRange{Start: 0, Size: 4}}}},
		"unplaced": {Groups: []Group{{Degree: 4, Lens: lens}}},
		"overlap": {Groups: []Group{
			{Degree: 4, Lens: lens, Range: cluster.DeviceRange{Start: 0, Size: 4}},
			{Degree: 4, Lens: nil, Range: cluster.DeviceRange{}},
			{Degree: 4, Lens: []int{1 << 10}, Range: cluster.DeviceRange{Start: 0, Size: 4}}}},
	} {
		if err := p.Validate(hc.Pricing(), lensOf(p)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func lensOf(p MicroPlan) []int {
	var out []int
	for _, g := range p.Groups {
		out = append(out, g.Lens...)
	}
	return out
}

// Regression for the shared-receiver mutation: Plan must not write the
// default bucket count through the pointer.
func TestHeterogeneousPlanDoesNotMutateQ(t *testing.T) {
	legacy := New(costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(8)))
	legacy.Q = 0
	if _, err := legacy.Plan(heteroBatch(4, 8)); err != nil {
		t.Fatal(err)
	}
	if legacy.Q != 0 {
		t.Fatalf("Plan mutated Q to %d", legacy.Q)
	}
	if _, err := legacy.PlanFixedDegree(heteroBatch(4, 8), 4); err != nil {
		t.Fatal(err)
	}
	if legacy.Q != 0 {
		t.Fatalf("PlanFixedDegree mutated Q to %d", legacy.Q)
	}
}

// BenchmarkPlanPlacedStraggled times placed enumerative planning on 64
// A100-40G with one node derated 1.5x, where ranges price differently and
// every configuration is placed under each placement bias: the plans an
// elastic daemon makes after a straggle event. Run it with -cpuprofile to
// see how placed planning splits between placement and the LPT scan.
func BenchmarkPlanPlacedStraggled(b *testing.B) {
	m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: 64})
	if err != nil {
		b.Fatal(err)
	}
	e, err := cluster.NewElastic(m)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Apply(cluster.Event{Kind: cluster.EventStraggle, Node: 2, Factor: 1.5}); err != nil {
		b.Fatal(err)
	}
	pl := NewHetero(costmodel.ProfileMixed(costmodel.GPT7B, e.Snapshot().Mixed))
	micro := sampledMicroBatches(b, 1, pl.TokenCapacity())
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := pl.Plan(micro[i%len(micro)]); err != nil {
			b.Fatal(err)
		}
	}
}
