package planner

import (
	"flag"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/milp"
	"flexsp/internal/workload"
)

func coeffs(n int) costmodel.Coeffs {
	return costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(n))
}

func TestPlanEmptyBatch(t *testing.T) {
	pl := New(coeffs(64))
	p, err := pl.Plan(nil)
	if err != nil || len(p.Groups) != 0 {
		t.Fatalf("empty plan = %+v, err %v", p, err)
	}
}

// The Fig. 1 motivating example: 1×100K + 4×48K sequences on 64 devices. The
// heterogeneity-adaptive plan must put the 100K sequence into a large group
// (SP≥16) and the 48K sequences into smaller groups (SP≤16), and beat the
// homogeneous SP=32 layout.
func TestFig1HeterogeneousBeatsHomogeneous(t *testing.T) {
	c := coeffs(64)
	pl := New(c)
	lens := []int{100 << 10, 48 << 10, 48 << 10, 48 << 10, 48 << 10}

	hetero, err := pl.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetero.Validate(c.Pricing(), lens); err != nil {
		t.Fatal(err)
	}
	homo, err := pl.PlanFixedDegree(lens, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Time >= homo.Time {
		t.Fatalf("hetero %.3fs should beat homo SP=32 %.3fs\nhetero: %v\nhomo: %v",
			hetero.Time, homo.Time, hetero.Groups, homo.Groups)
	}
	// The long sequence needs a large group; the short ones should get
	// smaller groups than a homogeneous layout would force.
	for _, g := range hetero.Groups {
		for _, l := range g.Lens {
			if l == 100<<10 && g.Degree < 16 {
				t.Fatalf("100K sequence placed on SP=%d (< min feasible 16)", g.Degree)
			}
		}
	}
	var sawSmall bool
	for _, g := range hetero.Groups {
		if g.Degree <= 16 && len(g.Lens) > 0 {
			sawSmall = true
		}
	}
	if !sawSmall {
		t.Fatalf("expected some short sequences on small groups: %v", hetero.Groups)
	}
}

func TestPlanValidatesOnRealBatches(t *testing.T) {
	c := coeffs(64)
	pl := New(c)
	rng := rand.New(rand.NewSource(4))
	for _, d := range workload.Datasets() {
		// Micro-batch-sized samples (a full 512 batch exceeds memory).
		lens := d.Batch(rng, 60, 192<<10)
		p, err := pl.Plan(lens)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if err := p.Validate(c.Pricing(), lens); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if p.Time <= 0 {
			t.Fatalf("%s: non-positive makespan", d.Name)
		}
	}
}

func TestPlanInfeasibleWhenTooLong(t *testing.T) {
	c := coeffs(8) // 8 devices cannot hold a 384K sequence
	pl := New(c)
	if _, err := pl.Plan([]int{384 << 10}); err == nil {
		t.Fatal("expected infeasibility")
	}
}

// The enumerative plan must never be worse than the best homogeneous plan —
// homogeneous configurations are in its search space.
func TestEnumDominatesHomogeneous(t *testing.T) {
	c := coeffs(64)
	pl := New(c)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5; trial++ {
		lens := workload.CommonCrawl().Batch(rng, 50, 192<<10)
		hetero, err := pl.Plan(lens)
		if err != nil {
			t.Fatal(err)
		}
		homo, err := pl.PlanHomogeneous(lens)
		if err != nil {
			t.Fatal(err)
		}
		if hetero.Time > homo.Time*1.001 {
			t.Fatalf("trial %d: enum %.3fs worse than homogeneous %.3fs",
				trial, hetero.Time, homo.Time)
		}
	}
}

// Takeaway (§1): the greedy smallest-group assignment creates bottlenecks;
// the balanced planner should beat it on skewed batches.
func TestEnumBeatsGreedyOnSkewedBatch(t *testing.T) {
	c := coeffs(64)
	pl := New(c)
	rng := rand.New(rand.NewSource(3))
	lens := workload.GitHub().Batch(rng, 64, 128<<10)
	enum, err := pl.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	greedy := &Planner{Coeffs: c, Strategy: StrategyGreedy, Q: 16}
	gp, err := greedy.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	if err := gp.Validate(c.Pricing(), lens); err != nil {
		t.Fatal(err)
	}
	if enum.Time > gp.Time {
		t.Fatalf("enum %.3fs should not lose to greedy %.3fs", enum.Time, gp.Time)
	}
}

// MILP strategy on a small cluster: must be valid and at least as good as
// enum (it is warm-started with the enum plan).
func TestMILPPlanSmallCluster(t *testing.T) {
	c := coeffs(8)
	enum := New(c)
	milpPl := &Planner{Coeffs: c, Strategy: StrategyMILP, Q: 6, MILPTimeLimit: 1500 * time.Millisecond}
	// Keep the batch small: on 8 GPUs the ZeRO-3 states of GPT-7B leave
	// only ~4K tokens of activation headroom per device.
	rng := rand.New(rand.NewSource(21))
	lens := workload.Wikipedia().Batch(rng, 8, 4<<10)

	ep, err := enum.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := milpPl.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(c.Pricing(), lens); err != nil {
		t.Fatal(err)
	}
	if mp.Time > ep.Time*1.01 {
		t.Fatalf("MILP %.4fs worse than its own warm start %.4fs", mp.Time, ep.Time)
	}
}

func TestPlanDeviceBudgetRespected(t *testing.T) {
	c := coeffs(64)
	pl := New(c)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		lens := workload.CommonCrawl().Batch(rng, 30+rng.Intn(40), 384<<10)
		p, err := pl.Plan(lens)
		if err != nil {
			continue // occasionally infeasible with huge sequences; fine
		}
		if p.DevicesUsed() > 64 {
			t.Fatalf("plan uses %d devices", p.DevicesUsed())
		}
		if err := p.Validate(c.Pricing(), lens); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEnumeratePartitionsCount(t *testing.T) {
	count := func(n, minFirst int) int {
		c := 0
		enumeratePartitions(n, n, minFirst, func([]int) { c++ })
		return c
	}
	// Binary partitions of small n (OEIS A018819): 1,2,4,6,10,14,20,26,36,46...
	wants := map[int]int{1: 1, 2: 2, 4: 4, 8: 10, 16: 36}
	for n, want := range wants {
		if got := count(n, 1); got != want {
			t.Errorf("partitions(%d) = %d, want %d", n, got, want)
		}
	}
	// Pruning by minFirst strictly reduces the count.
	if count(16, 8) >= count(16, 1) {
		t.Error("minFirst pruning had no effect")
	}
	// Every partition must contain a part ≥ minFirst and sum to n.
	enumeratePartitions(16, 16, 4, func(parts []int) {
		sum, maxP := 0, 0
		for _, p := range parts {
			sum += p
			if p > maxP {
				maxP = p
			}
		}
		if sum != 16 || maxP < 4 {
			t.Errorf("bad partition %v", parts)
		}
	})
}

func TestSearchConfigsLargeN(t *testing.T) {
	cfgs := searchConfigs(1024, 32, 1024)
	if len(cfgs) == 0 {
		t.Fatal("no configurations for N=1024")
	}
	for _, cfg := range cfgs {
		sum, maxP := 0, 0
		for _, d := range cfg {
			sum += d
			if d > maxP {
				maxP = d
			}
		}
		if sum != 1024 {
			t.Fatalf("config %v sums to %d", cfg, sum)
		}
		if maxP < 32 {
			t.Fatalf("config %v lacks a group ≥ 32", cfg)
		}
	}
}

// Beyond enumLimit the configuration search must not depend on map
// iteration order: its configurations, and so the plans that break span
// ties by enumeration index, repeat exactly from call to call.
func TestSearchConfigsDeterministic(t *testing.T) {
	want := searchConfigs(128, 4, 128)
	for i := 0; i < 20; i++ {
		got := searchConfigs(128, 4, 128)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for j := range got {
			if j >= len(want) || !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("call %d: searchConfigs(128, 4, 128) differs from the first call at configuration %d", i, j)
			}
		}
		t.Fatalf("call %d: searchConfigs(128, 4, 128) returned %d configurations, the first call %d", i, len(got), len(want))
	}
	pl := New(coeffs(128))
	lens := []int{7391, 6168, 5608, 5212, 4647, 4298, 4080, 3809, 3683, 3490, 3358, 3224}
	first, err := pl.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p, err := pl.Plan(lens)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, first) {
			t.Fatalf("plan %d on 128 devices: %v (%.5f s), first plan %v (%.5f s)",
				i, p.Groups, p.Time, first.Groups, first.Time)
		}
	}
}

func TestPlanLargeCluster(t *testing.T) {
	c := coeffs(128)
	pl := New(c)
	rng := rand.New(rand.NewSource(15))
	lens := workload.CommonCrawl().Batch(rng, 80, 128<<10)
	p, err := pl.Plan(lens)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(c.Pricing(), lens); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyEnum.String() != "enum" || StrategyMILP.String() != "milp" ||
		StrategyGreedy.String() != "greedy" || Strategy(7).String() == "" {
		t.Fatal("Strategy.String mismatch")
	}
}

func TestMicroPlanAccessors(t *testing.T) {
	p := MicroPlan{Groups: []Group{
		{Degree: 32, Lens: []int{1000}},
		{Degree: 8, Lens: []int{10, 20}},
		{Degree: 4, Lens: nil},
	}}
	ds := p.Degrees()
	if len(ds) != 2 || ds[0] != 32 || ds[1] != 8 {
		t.Fatalf("Degrees = %v", ds)
	}
	if p.DevicesUsed() != 40 {
		t.Fatalf("DevicesUsed = %d", p.DevicesUsed())
	}
	if (Group{Degree: 8, Lens: []int{5, 7}}).Tokens() != 12 {
		t.Fatal("Tokens mismatch")
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	c := coeffs(64)
	lens := []int{1000, 2000}
	good := MicroPlan{Groups: []Group{{Degree: 8, Lens: []int{1000, 2000}}}}
	good.recomputeTime(c.Pricing())
	if err := good.Validate(c.Pricing(), lens); err != nil {
		t.Fatal(err)
	}
	if good.Validate(c.WithSPDegreeCap(4).Pricing(), lens) == nil {
		t.Error("group above the SP degree cap accepted")
	}
	stale := good
	stale.Time *= 1.5
	if stale.Validate(c.Pricing(), lens) == nil {
		t.Error("plan time other than its slowest group's accepted")
	}
	over := MicroPlan{Groups: []Group{
		{Degree: 64, Lens: []int{1000}},
		{Degree: 64, Lens: []int{2000}},
	}}
	if over.Validate(c.Pricing(), lens) == nil {
		t.Error("device oversubscription accepted")
	}
	missing := MicroPlan{Groups: []Group{{Degree: 8, Lens: []int{1000}}}}
	if missing.Validate(c.Pricing(), lens) == nil {
		t.Error("missing sequence accepted")
	}
	oom := MicroPlan{Groups: []Group{{Degree: 1, Lens: []int{1 << 20}}}}
	if oom.Validate(c.Pricing(), []int{1 << 20}) == nil {
		t.Error("OOM group accepted")
	}
}

// The assignment's inlined hot-path cost must equal the cost model's
// GroupTimeSums for both communication styles.
func TestAssignmentTimeMatchesCostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, style := range []costmodel.CommStyle{costmodel.StyleUlysses, costmodel.StyleRingCP} {
		c := coeffs(64).WithStyle(style)
		degrees := []int{32, 16, 8, 4, 2, 1}
		a := newAssignment(c, degrees)
		for i := 0; i < 40; i++ {
			g := rng.Intn(len(degrees))
			it := item{rep: 256 + rng.Intn(8<<10)}
			it.actual = it.rep
			if a.fits(g, it) {
				a.add(g, it)
			}
		}
		for g := range degrees {
			got := a.groupTime(g)
			want := c.GroupTimeSums(a.sumS[g], a.sumS2[g], degrees[g])
			if diff := got - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("style %v group %d: inline %.12f != GroupTimeSums %.12f",
					style, g, got, want)
			}
		}
	}
}

var oracleInstances = flag.Int("oracle-instances", 6,
	"tiny instances per communication style in TestEnumOptimalOnTinyInstances")

// gapTally counts the instances on which a planner misses the exhaustive
// optimum, and by how much at most.
type gapTally struct {
	solves, misses, noPlan int
	maxPct                 float64
}

func (g *gapTally) add(got, best float64) {
	g.solves++
	if got > best*(1+1e-9) {
		g.misses++
		g.maxPct = max(g.maxPct, 100*(got/best-1))
	}
}

// TestEnumOptimalOnTinyInstances checks the planners against exhaustive
// search (bruteForcePlan) on tiny instances, under Ulysses and ring CP: 2–6
// sequences on 8 A100-40G, each uniform up to the fleet's token capacity
// over the count, with Q = 64 so that bucketing is exact. Problem (17),
// warm-started like StrategyMILP and solved to Gap 0, must equal the
// optimum on every instance; enum must come within 2% of it under Ulysses.
// Enum's ring gaps and greedy's gaps are logged, not gated.
//
// A few 6-sequence instances exhaust the branch and bound's node limit
// before it proves optimality, and which incumbent it holds then depends
// on the worker pool. On those the test checks the formulation instead:
// the optimal plan must encode to a feasible point whose makespan
// variable is the optimum, and the search's plan must not beat it.
// -oracle-instances sets the instance count per style.
func TestEnumOptimalOnTinyInstances(t *testing.T) {
	for _, style := range []costmodel.CommStyle{costmodel.StyleUlysses, costmodel.StyleRingCP} {
		t.Run(style.String(), func(t *testing.T) {
			t.Parallel()
			c := coeffs(8).WithStyle(style)
			pl := New(c)
			pl.Q = 64 // no bucketing coarsening at this size
			greedy := *pl
			greedy.Strategy = StrategyGreedy
			capacity := c.ClusterTokenCapacity()
			rng := rand.New(rand.NewSource(77))
			var milpGaps, nodeLimited, enumGaps, greedyGaps gapTally
			for trial := 0; trial < *oracleInstances; trial++ {
				lens := make([]int, 2+rng.Intn(5))
				for i := range lens {
					lens[i] = 1 + rng.Intn(capacity/len(lens))
				}
				best, bestPlan := bruteForcePlan(c, lens, 8)

				f, err := pl.buildMILP(lens)
				if err != nil {
					t.Fatalf("trial %d: %v (lens %v)", trial, err, lens)
				}
				enum, err := pl.Plan(lens)
				if err != nil {
					t.Fatalf("trial %d: enum: %v (lens %v)", trial, err, lens)
				}
				sol := milp.Solve(f.m, milp.Options{Incumbent: f.encode(enum), Gap: 0})
				exact := f.extract(sol.X)
				switch sol.Status {
				case milp.StatusOptimal:
					milpGaps.add(exact.Time, best)
					if math.Abs(exact.Time-best) > 1e-9*best {
						t.Errorf("trial %d: MILP at Gap 0 %.9f, brute force %.9f (lens %v, plan %v)",
							trial, exact.Time, best, lens, exact.Groups)
					}
				case milp.StatusFeasible:
					nodeLimited.add(exact.Time, best)
					x := f.encode(bestPlan)
					if x == nil || math.Abs(x[f.cVar]-1e-9-best) > 1e-9*best {
						t.Errorf("trial %d: the optimal plan %v does not encode at its time %.9f (lens %v)",
							trial, bestPlan.Groups, best, lens)
					}
					if exact.Time < best*(1-1e-9) {
						t.Errorf("trial %d: node-limited MILP %.9f beats brute force %.9f (lens %v)",
							trial, exact.Time, best, lens)
					}
				default:
					t.Fatalf("trial %d: MILP status %v (lens %v)", trial, sol.Status, lens)
				}

				enumGaps.add(enum.Time, best)
				if style == costmodel.StyleUlysses && enum.Time > best*1.02+1e-9 {
					t.Errorf("trial %d: enum %.4f vs brute force %.4f (lens %v)",
						trial, enum.Time, best, lens)
				}
				if gp, err := greedy.Plan(lens); err != nil {
					greedyGaps.noPlan++
				} else {
					greedyGaps.add(gp.Time, best)
				}
			}
			n := *oracleInstances
			t.Logf("MILP at Gap 0: %d/%d miss the optimum, by ≤ %.2f%%; %d more stopped at the node limit, %d of them short of it by ≤ %.2f%%",
				milpGaps.misses, n-nodeLimited.solves, milpGaps.maxPct, nodeLimited.solves, nodeLimited.misses, nodeLimited.maxPct)
			t.Logf("enum: %d/%d miss the optimum, by ≤ %.2f%%", enumGaps.misses, n, enumGaps.maxPct)
			t.Logf("greedy: %d/%d miss the optimum, by ≤ %.2f%%; %d without a plan",
				greedyGaps.misses, n, greedyGaps.maxPct, greedyGaps.noPlan)
		})
	}
}

// bruteForcePlan exhaustively tries every degree multiset and every
// assignment of sequences to groups, returning the optimal makespan and a
// plan that attains it.
func bruteForcePlan(c costmodel.Coeffs, lens []int, devices int) (float64, MicroPlan) {
	best := math.Inf(1)
	var bestPlan MicroPlan
	var configs [][]int
	var rec func(remaining, maxP int, cur []int)
	rec = func(remaining, maxP int, cur []int) {
		if remaining == 0 {
			configs = append(configs, append([]int(nil), cur...))
			return
		}
		for d := maxP; d >= 1; d /= 2 {
			if d > remaining {
				continue
			}
			rec(remaining-d, d, append(cur, d))
		}
	}
	rec(devices, devices, nil)
	for _, cfg := range configs {
		assignLens := make([][]int, len(cfg))
		var tryAssign func(i int)
		tryAssign = func(i int) {
			if i == len(lens) {
				span := 0.0
				ok := true
				for g, gl := range assignLens {
					if len(gl) == 0 {
						continue
					}
					if !c.Fits(gl, cfg[g]) {
						ok = false
						break
					}
					if tm := c.GroupTime(gl, cfg[g]); tm > span {
						span = tm
					}
				}
				if ok && span < best {
					best = span
					bestPlan = MicroPlan{Time: span}
					for g, gl := range assignLens {
						if len(gl) > 0 {
							bestPlan.Groups = append(bestPlan.Groups, Group{Degree: cfg[g], Lens: append([]int(nil), gl...)})
						}
					}
				}
				return
			}
			for g := range cfg {
				assignLens[g] = append(assignLens[g], lens[i])
				tryAssign(i + 1)
				assignLens[g] = assignLens[g][:len(assignLens[g])-1]
			}
		}
		tryAssign(0)
	}
	return best, bestPlan
}
