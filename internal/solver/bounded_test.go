package solver

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"flexsp/internal/blaster"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/workload"
)

// systematicBatch draws a batch the way the repository benchmark does: an
// eight times larger draw at a 192K context, sorted, every eighth length
// kept, shuffled. It keeps the corpus's long tail with little spread in how
// many long sequences one batch holds.
func systematicBatch(d workload.Dataset, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	draw := d.Batch(rng, 8*n, 192<<10)
	sort.Ints(draw)
	out := make([]int, n)
	for i := range out {
		out[i] = draw[8*i+4]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// windowFleets are the pricings the bounded walk is checked on: scalar,
// ring CP, the heads cap, a per-micro-batch overhead, a single-class placed
// fleet, a derated and shrunken one, a mixed A100+H100 fleet under both
// communication styles, and 128 devices (the configuration search path).
func windowFleets(t *testing.T) map[string]func() *Solver {
	t.Helper()
	gpt := func(n int) costmodel.Coeffs { return costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(n)) }
	placed := func(mx cluster.MixedTopology, style costmodel.CommStyle) func() *Solver {
		return func() *Solver {
			return New(planner.NewHetero(costmodel.ProfileMixed(costmodel.GPT7B, mx).WithStyle(style)))
		}
	}
	single, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := cluster.NewElastic(single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(cluster.Event{Kind: cluster.EventStraggle, Node: 2, Factor: 1.5},
		cluster.Event{Kind: cluster.EventNodeDown, Node: 5}); err != nil {
		t.Fatal(err)
	}
	mixed, err := cluster.MixedCluster(
		cluster.ClassCount{Class: cluster.A100_40G, Devices: 32},
		cluster.ClassCount{Class: cluster.H100, Devices: 32})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() *Solver{
		"scalar":    func() *Solver { return New(planner.New(gpt(64))) },
		"ring":      func() *Solver { return New(planner.New(gpt(64).WithStyle(costmodel.StyleRingCP))) },
		"heads-cap": func() *Solver { return New(planner.New(gpt(64).WithHeadsCap())) },
		"overhead": func() *Solver {
			s := New(planner.New(gpt(64)))
			s.Overhead = gpt(64).ZeROTime()
			return s
		},
		"single-class": placed(single, costmodel.StyleUlysses),
		"straggled":    placed(e.Snapshot().Mixed, costmodel.StyleUlysses),
		"mixed":        placed(mixed, costmodel.StyleUlysses),
		"mixed-ring":   placed(mixed, costmodel.StyleRingCP),
		"128":          func() *Solver { return New(planner.New(gpt(128))) },
	}
}

// windowTrial is one micro-batch count of the reference full window.
type windowTrial struct {
	time float64
	err  error
}

// fullWindow is Alg. 1 without bounds, the reference the bounded walk must
// reproduce: every micro-batch of every trial planned, totals summed in
// micro-batch order, the first strictly cheapest trial kept, and the window
// widened when no trial is feasible.
func fullWindow(s *Solver, batch []int) (Result, map[int]windowTrial) {
	pl := s.Planner
	mmin := blaster.MinMicroBatches(batch, pl.TokenCapacity())
	best := Result{Time: math.Inf(1), MMin: mmin}
	trials := map[int]windowTrial{}
	planned := map[string]planner.MicroPlan{} // the planner is deterministic
	run := func(m int) {
		if m > len(batch) {
			trials[m] = windowTrial{err: fmt.Errorf("m %d exceeds batch size", m)}
			return
		}
		var micro [][]int
		var err error
		if s.Sort {
			micro, err = blaster.Blast(batch, m)
		} else {
			micro, err = blaster.BlastUnsorted(batch, m)
		}
		plans := make([]planner.MicroPlan, len(micro))
		for i, lens := range micro {
			if err != nil {
				break
			}
			key := fmt.Sprint(lens)
			p, ok := planned[key]
			if !ok {
				if p, err = pl.Plan(lens); err == nil {
					planned[key] = p
				}
			}
			plans[i] = p
		}
		if err != nil {
			trials[m] = windowTrial{err: err}
			return
		}
		total := s.Overhead * float64(len(plans))
		for _, p := range plans {
			total += p.Time
		}
		trials[m] = windowTrial{time: total}
		if total < best.Time {
			best.Plans, best.Time, best.M = plans, total, m
		}
	}
	for m := mmin; m < mmin+s.Trials; m++ {
		run(m)
	}
	for m := mmin + s.Trials; math.IsInf(best.Time, 1) && m <= len(batch); m += s.Trials {
		run(m)
	}
	return best, trials
}

// TestBoundedWalkMatchesFullWindow is the differential check of the bounded
// trial walk: an uncached solve must return the M, M_min, time and plan
// bytes of planning the whole window, on every pricing, with one and five
// trials and with the sorting ablation. Its summaries must be honest: the
// chosen trial and every trial that lowered the incumbent carry their full
// time, a pruned trial's bound lies between the incumbent it lost to and
// its true time, and an infeasible trial is infeasible in full too.
func TestBoundedWalkMatchesFullWindow(t *testing.T) {
	batches := map[string][]int{
		"cc-64":    systematicBatch(workload.CommonCrawl(), 1, 64),
		"gh-64":    systematicBatch(workload.GitHub(), 1, 64),
		"wiki-64":  systematicBatch(workload.Wikipedia(), 1, 64),
		"cc-256":   systematicBatch(workload.CommonCrawl(), 1, 256),
		"wiki-256": systematicBatch(workload.Wikipedia(), 1, 256),
		// Its M_min micro-batch fits the scalar fleet by actual tokens but
		// not at bucket-representative lengths, so trial M_min fails.
		"gh-256": systematicBatch(workload.GitHub(), 2, 256),
	}
	type config struct {
		trials int
		sort   bool
	}
	configs := []config{{5, true}, {1, true}, {5, false}, {1, false}}
	fleets := windowFleets(t)
	names := make([]string, 0, len(fleets))
	for name := range fleets {
		names = append(names, name)
	}
	sort.Strings(names)
	batchNames := []string{"cc-64", "gh-64", "wiki-64", "cc-256", "gh-256", "wiki-256"}

	scalar := fleets["scalar"]()
	_, trials := fullWindow(scalar, batches["gh-256"])
	if mmin := blaster.MinMicroBatches(batches["gh-256"], scalar.Planner.TokenCapacity()); trials[mmin].err == nil {
		t.Fatal("gh-256's M_min trial is feasible on the scalar fleet: the infeasible-trial case is not covered")
	}
	for fi, fleet := range names {
		for bi, bname := range batchNames {
			// Rotate the trial and sorting settings over the matrix so each
			// fleet and each batch meets several of them.
			cfg := configs[(fi+bi)%len(configs)]
			t.Run(fmt.Sprintf("%s/%s/trials=%d/sort=%v", fleet, bname, cfg.trials, cfg.sort), func(t *testing.T) {
				t.Parallel()
				s := fleets[fleet]()
				s.Trials, s.Sort = cfg.trials, cfg.sort
				batch := batches[bname]
				want, trials := fullWindow(s, batch)
				got, err := s.Solve(batch)
				if math.IsInf(want.Time, 1) {
					if err == nil {
						t.Fatalf("bounded walk solved a batch the full window cannot: M=%d", got.M)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.M != want.M || got.MMin != want.MMin || got.Time != want.Time {
					t.Fatalf("bounded (M=%d, M_min=%d, %v) != full window (M=%d, M_min=%d, %v)",
						got.M, got.MMin, got.Time, want.M, want.MMin, want.Time)
				}
				gb, _ := json.Marshal(got.Plans)
				wb, _ := json.Marshal(want.Plans)
				if string(gb) != string(wb) {
					t.Fatalf("plans differ:\nbounded %s\nfull    %s", gb, wb)
				}
				if len(got.Trials) != len(trials) {
					t.Fatalf("%d trial summaries, full window ran %d trials", len(got.Trials), len(trials))
				}
				incumbent := math.Inf(1)
				for _, ts := range got.Trials {
					ref, ok := trials[ts.M]
					if !ok {
						t.Fatalf("summary for M=%d, which the full window never tried", ts.M)
					}
					lowers := ref.err == nil && ref.time < incumbent
					switch {
					case ts.Feasible:
						if ref.err != nil || ts.Time != ref.time {
							t.Errorf("M=%d: summary time %v, full window %v (%v)", ts.M, ts.Time, ref.time, ref.err)
						}
					case ts.Pruned:
						if ts.Bound <= incumbent || (ref.err == nil && ts.Bound > ref.time*(1+pruneMargin)) {
							t.Errorf("M=%d pruned at bound %v: incumbent %v, true time %v", ts.M, ts.Bound, incumbent, ref.time)
						}
					default:
						if ref.err == nil {
							t.Errorf("M=%d reported infeasible (%s), full window %v", ts.M, ts.Note, ref.time)
						}
					}
					if lowers {
						if !ts.Feasible {
							t.Errorf("M=%d lowers the incumbent to %v but its summary is %+v", ts.M, ref.time, ts)
						}
						incumbent = ref.time
					}
				}
			})
		}
	}
}

// TestLowerBoundHoldsForRetargets checks the bound the walk prunes with
// against plans the walk takes from the plan cache: a retarget of a
// neighbour's plan with the same rounded signature is a valid plan, so the
// bound must stay below its time on every pricing.
func TestLowerBoundHoldsForRetargets(t *testing.T) {
	batch := systematicBatch(workload.CommonCrawl(), 3, 128)
	for name, mk := range windowFleets(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := mk()
			pr, lb := s.Planner.Pricing(), s.Planner.LowerBound()
			cache := NewPlanCache(0, 256)
			micro, err := blaster.Blast(batch, blaster.MinMicroBatches(batch, s.Planner.TokenCapacity())+1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			retargets := 0
			for _, lens := range micro {
				p, err := s.Planner.Plan(lens)
				if err != nil {
					continue
				}
				cache.Put(lens, p)
				// The neighbour moves every length within its 256-token
				// rounding step.
				nb := make([]int, len(lens))
				for i, l := range lens {
					nb[i] = (l+255)/256*256 - rng.Intn(256)
				}
				rp, ok := cache.Get(pr, nb)
				if !ok {
					continue
				}
				retargets++
				if bound := lb.Of(nb); bound > rp.Time {
					t.Errorf("bound %v above the retargeted plan's %v", bound, rp.Time)
				}
			}
			if retargets == 0 {
				t.Error("no retarget was accepted")
			}
		})
	}
}
