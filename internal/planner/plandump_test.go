package planner

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/workload"
)

var updatePlanGolden = flag.Bool("update-plan-golden", false,
	"rewrite testdata/plan_dump.golden from the current planners")

// planDumpFleets are the planners the plan dump covers, in file order: a
// scalar 64-device fleet under Ulysses, ring CP and the heads cap, a
// NewHetero single-class 16-device fleet, an A100+H100 32+32 fleet under
// both communication styles, and the straggled 64-device fleet of
// boundPricings (node 1 derated 1.5×, its last node down).
func planDumpFleets(t *testing.T) []milpFleet {
	t.Helper()
	single, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: 16})
	if err != nil {
		t.Fatal(err)
	}
	mixed := mixedFleet(t, 32, 32)
	return []milpFleet{
		{"scalar-64", New(coeffs(64))},
		{"scalar-64-ring", New(coeffs(64).WithStyle(costmodel.StyleRingCP))},
		{"scalar-64-heads", New(coeffs(64).WithHeadsCap())},
		{"single-16", NewHetero(costmodel.ProfileMixed(costmodel.GPT7B, single))},
		{"mixed-32+32", NewHetero(mixed)},
		{"mixed-32+32-ring", NewHetero(mixed.WithStyle(costmodel.StyleRingCP))},
		{"straggled-64", boundPricings(t, 64)["straggled"]},
	}
}

// planDigest is the first 16 hex digits of the sha256 of the plan's JSON
// and its makespan, or the planner's error.
func planDigest(t *testing.T, p MicroPlan, err error) string {
	t.Helper()
	if err != nil {
		return "error(" + err.Error() + ")"
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x@%v", sum[:8], p.Time)
}

// TestPlanDumpGolden pins the enum and greedy plans and the LowerBound of
// every Alg. 1 window micro-batch of one CommonCrawl, GitHub and Wikipedia
// batch (built as TestLowerBoundBelowEnumAndGreedy builds them) on each
// planDumpFleets planner: one line per micro-batch with the plans' digests
// and makespans and the bound's float bits. A change that should leave
// plans alone must pass unchanged; one that changes them on purpose
// regenerates testdata/plan_dump.golden (-update-plan-golden), and the diff
// names every micro-batch whose plan moved.
func TestPlanDumpGolden(t *testing.T) {
	corpora := []workload.Dataset{workload.CommonCrawl(), workload.GitHub(), workload.Wikipedia()}
	var batches [][]int
	for i, d := range corpora {
		batches = append(batches, d.Batch(rand.New(rand.NewSource(int64(40+i))), 128, 192<<10))
	}
	var got bytes.Buffer
	for _, fl := range planDumpFleets(t) {
		lb := fl.pl.LowerBound()
		greedy := *fl.pl
		greedy.Strategy = StrategyGreedy
		for i, batch := range batches {
			for j, lens := range windowMicroBatches(fl.pl, batch) {
				enum, enumErr := fl.pl.Plan(lens)
				gp, greedyErr := greedy.Plan(lens)
				fmt.Fprintf(&got, "%s %s/%d enum=%s greedy=%s bound=%016x\n", fl.name, corpora[i].Name, j,
					planDigest(t, enum, enumErr), planDigest(t, gp, greedyErr), math.Float64bits(lb.Of(lens)))
			}
		}
	}
	checkGolden(t, "plan_dump.golden", got.Bytes(), *updatePlanGolden, "-update-plan-golden")
}
