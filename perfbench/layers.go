package main

import (
	"fmt"
	"sort"
	"time"

	"flexsp/internal/blaster"
	"flexsp/internal/bucket"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
	"flexsp/internal/sim"
)

// Caps on the traced phase's outside-in replays. They run after the measured
// loop, on the first plans of the scored prefix, so their cost and their
// inputs are fixed by the seed.
const (
	replayBatches    = 6
	replayMicroPlans = 12
	replayExecutions = 40
)

// replayAlg1 replays Alg. 1's trial window serially on the first scored
// batches with a scalar planner for the static 64-GPU fleet: MinMicroBatches
// and Blast for each M in [M_min, M_min+M′), then bucket.DP and
// Planner.Plan on each distinct micro-batch. Per batch, the planner column
// is the serial planning work a cold solve does; its ratio to plan_p50_ms on
// library-fresh is the solver's parallel speed-up.
func replayAlg1(ph *phase) error {
	pl := planner.New(costmodel.Profile(costmodel.GPT7B, cluster.A100Cluster(64)))
	var planMs, plannerPer, blasterPer, bucketPer []float64
	n := 0
	for _, o := range ph.ops {
		if n == replayBatches {
			break
		}
		if !ph.scored(o) || o.err != nil {
			continue
		}
		n++
		var plannerSum, blasterSum, bucketSum time.Duration
		start := time.Now()
		mmin := blaster.MinMicroBatches(o.lens, pl.TokenCapacity())
		blasterSum += time.Since(start)
		seen := make(map[string]bool)
		for m := mmin; m < mmin+blaster.DefaultTrials && m <= len(o.lens); m++ {
			start = time.Now()
			micro, err := blaster.Blast(o.lens, m)
			blasterSum += time.Since(start)
			if err != nil {
				return fmt.Errorf("replaying Blast(m=%d): %w", m, err)
			}
			for _, mb := range micro {
				key := fmt.Sprint(mb)
				if seen[key] {
					continue
				}
				seen[key] = true
				start = time.Now()
				bucket.DP(mb, bucket.DefaultQ)
				bucketSum += time.Since(start)
				start = time.Now()
				_, err := pl.Plan(mb)
				d := time.Since(start)
				if err != nil && err != planner.ErrInfeasible {
					return fmt.Errorf("replaying Plan: %w", err)
				}
				plannerSum += d
				planMs = append(planMs, millis(d))
			}
		}
		plannerPer = append(plannerPer, millis(plannerSum))
		blasterPer = append(blasterPer, millis(blasterSum))
		bucketPer = append(bucketPer, millis(bucketSum))
	}
	ph.layers["planner.ms_p50"] = metric{median(planMs), "ms"}
	ph.layers["planner.ms_per_plan"] = metric{mean(plannerPer), "ms"}
	ph.layers["blaster.ms_per_plan"] = metric{mean(blasterPer), "ms"}
	ph.layers["bucket.ms_per_plan"] = metric{mean(bucketPer), "ms"}
	return nil
}

// staticFleet is the 64-GPU A100-40G fleet of every static plan, as the
// one-class mixed topology the placed cost model profiles.
var staticFleet = func() cluster.MixedTopology {
	m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: 64})
	if err != nil {
		panic("perfbench: building the static fleet: " + err.Error())
	}
	return m
}()

// microBatch is one served micro-batch with the fleet it was planned for.
type microBatch struct {
	lens  []int
	mixed cluster.MixedTopology
}

// servedMicroBatches lists the micro-batches of the scored plans in order,
// up to limit.
func servedMicroBatches(ph *phase, limit int) []microBatch {
	var out []microBatch
	for _, o := range ph.ops {
		if !ph.scored(o) || o.err != nil {
			continue
		}
		mixed := staticFleet
		if o.fleet.hetero != nil {
			mixed = o.fleet.hetero.Mixed
		}
		for _, mp := range o.plans {
			if len(out) == limit {
				return out
			}
			var lens []int
			for _, g := range mp.Groups {
				lens = append(lens, g.Lens...)
			}
			sort.Ints(lens)
			out = append(out, microBatch{lens: lens, mixed: mixed})
		}
	}
	return out
}

// placedVsScalar re-plans the first served micro-batches from outside: with
// the placed planner every elastic daemon uses (planner.NewHetero over
// costmodel.ProfileMixed of the plan's fleet) and, on single-class fleets,
// with the scalar planner over the same fleet's uniform model. Both see the
// same micro-batches, so the two medians compare the planners directly.
func placedVsScalar(ph *phase) error {
	var placed, scalar []float64
	for _, mb := range servedMicroBatches(ph, replayMicroPlans) {
		h := costmodel.ProfileMixed(costmodel.GPT7B, mb.mixed)
		pl := planner.NewHetero(h)
		start := time.Now()
		_, err := pl.Plan(mb.lens)
		placed = append(placed, millis(time.Since(start)))
		if err != nil {
			return fmt.Errorf("placed re-plan: %w", err)
		}
		if uni, ok := h.Uniform(); ok {
			sp := planner.New(uni)
			start = time.Now()
			_, err := sp.Plan(mb.lens)
			scalar = append(scalar, millis(time.Since(start)))
			if err != nil {
				return fmt.Errorf("scalar re-plan: %w", err)
			}
		}
	}
	ph.layers["planner.placed_ms_p50"] = metric{median(placed), "ms"}
	ph.layers["planner.scalar_ms_p50"] = metric{median(scalar), "ms"}
	return nil
}

// executeServed replays served plans on the simulated cluster, as a training
// job would after receiving them, and reports the executor's wall time.
func executeServed(ph *phase) error {
	var ms []float64
	for _, o := range ph.ops {
		if len(ms) == replayExecutions {
			break
		}
		if !ph.scored(o) || o.err != nil {
			continue
		}
		start := time.Now()
		var err error
		if o.fleet.hetero != nil {
			_, err = sim.ExecuteIterationHetero(*o.fleet.hetero, o.plans, sim.Options{})
		} else {
			_, err = sim.ExecuteIteration(*o.fleet.scalar, o.plans, sim.Options{})
		}
		ms = append(ms, millis(time.Since(start)))
		if err != nil {
			return fmt.Errorf("executing served plan: %w", err)
		}
	}
	ph.layers["sim.execute_ms_p50"] = metric{median(ms), "ms"}
	return nil
}

// absentLayers reports zero for the layers a workload's path never enters,
// so every workload prints the full per-layer table.
func absentLayers(ph *phase, names ...string) {
	for _, n := range names {
		unit := "ms"
		switch n {
		case "server.replans", "server.cold_replans", "server.degraded_plans", "server.rejected",
			"fleet.failovers", "fleet.spills", "fleet.errors":
			unit = "count"
		case "server.coalesced_ratio", "fleet.replica_share_max":
			unit = "ratio"
		}
		ph.layers[n] = metric{0, unit}
	}
}

var (
	elasticLayers = []string{"server.topology_post_ms_p50", "server.replan_ms_p50", "server.replan_ms_mean",
		"server.replans", "server.cold_replans", "server.degraded_plans"}
	requestLayers = []string{"server.handler_ms_p50", "server.self_ms_p50", "server.coalesced_ratio", "server.rejected"}
	fleetLayers   = []string{"fleet.route_ms_p50", "fleet.self_ms_p50", "fleet.failovers", "fleet.spills",
		"fleet.errors", "fleet.replica_share_max"}
)
