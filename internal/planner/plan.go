// Package planner implements FlexSP's parallelism planner (paper §4.1): given
// the sequences of one micro-batch, it chooses how many heterogeneous SP
// groups to form, each group's degree, and which group each sequence joins,
// minimizing the makespan (the maximum per-group execution time) subject to
// per-device memory.
//
// Three strategies are provided:
//
//   - StrategyMILP solves the paper-faithful bucketed formulation (problem
//     17) with the internal/milp branch-and-bound solver, warm-started by
//     the enumerative solution (our stand-in for SCIP).
//   - StrategyEnum (default) exploits the power-of-two structure: it
//     enumerates candidate degree multisets (binary partitions of N, or a
//     local search over them at large N), solves the per-configuration
//     assignment with a cost-aware LPT heuristic, and refines the best
//     configurations with a move/swap local search.
//   - StrategyGreedy is the naive "smallest feasible group" assignment the
//     paper argues against (§1, Time-Balanced Sequence Assignment); it is
//     kept as an ablation baseline.
package planner

import (
	"fmt"
	"sort"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

// Group is one sequence-parallel group of a plan: Degree devices jointly
// processing the assigned sequences.
type Group struct {
	Degree int
	Lens   []int
	// Range is the group's placed device range (Size == Degree), set by
	// range-placing planners (NewHetero). The zero value means "unplaced":
	// the executor places the group lowest-address-first.
	Range cluster.DeviceRange
}

// Placed reports whether the group carries an explicit device range.
func (g Group) Placed() bool { return g.Range.Size > 0 }

// Tokens returns the total tokens assigned to the group.
func (g Group) Tokens() int {
	t := 0
	for _, l := range g.Lens {
		t += l
	}
	return t
}

// Time returns the group's estimated execution time under the cost model.
func (g Group) Time(c costmodel.Coeffs) float64 { return c.GroupTime(g.Lens, g.Degree) }

func (g Group) String() string {
	return fmt.Sprintf("SP=%d(%d seqs, %d tokens)", g.Degree, len(g.Lens), g.Tokens())
}

// MicroPlan is the plan for one micro-batch: a set of SP groups executing
// concurrently.
type MicroPlan struct {
	Groups []Group
	// Time is the estimated makespan (max group time), seconds.
	Time float64
}

// Degrees returns the degree multiset of the plan's non-empty groups,
// descending.
func (p MicroPlan) Degrees() []int {
	var ds []int
	for _, g := range p.Groups {
		if len(g.Lens) > 0 {
			ds = append(ds, g.Degree)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// DevicesUsed sums the degrees of non-empty groups.
func (p MicroPlan) DevicesUsed() int {
	n := 0
	for _, g := range p.Groups {
		if len(g.Lens) > 0 {
			n += g.Degree
		}
	}
	return n
}

// Placement returns the plan's non-empty groups and the device ranges they
// run on among n devices: the groups' own ranges when the plan is placed —
// checked to match their degrees and to be aligned, disjoint and in bounds —
// or the lowest-address placement of their degrees when it is not. A plan
// mixing placed and unplaced groups is rejected.
func (p MicroPlan) Placement(n int) ([]Group, []cluster.DeviceRange, error) {
	var groups []Group
	var placement cluster.GroupPlacement
	var degrees []int
	for _, g := range p.Groups {
		if len(g.Lens) == 0 {
			continue
		}
		groups = append(groups, g)
		degrees = append(degrees, g.Degree)
		if g.Placed() {
			if g.Range.Size != g.Degree {
				return nil, nil, fmt.Errorf("planner: group %v range %v does not match its degree", g, g.Range)
			}
			placement.Ranges = append(placement.Ranges, g.Range)
		}
	}
	switch len(placement.Ranges) {
	case len(groups):
		if err := placement.Validate(n); err != nil {
			return nil, nil, fmt.Errorf("planner: invalid placement: %w", err)
		}
	case 0:
		var err error
		if placement, err = cluster.PlaceGroups(n, degrees); err != nil {
			return nil, nil, fmt.Errorf("planner: placement failed: %w", err)
		}
	default:
		return nil, nil, fmt.Errorf("planner: plan mixes placed and unplaced groups")
	}
	return groups, placement.Ranges, nil
}

// Validate checks the plan against the micro-batch it was built for and the
// pricing of its fleet: every sequence placed exactly once, power-of-two
// degrees within the device budget (see Placement; placed plans must place
// every group on a valid range) and within the fleet's SP degree cap (the
// Ulysses head count, when applied), every group within the memory of the
// devices it occupies, and a Time equal to the slowest group's time under
// the pricing of its range. A mixed fleet, whose ranges price differently,
// accepts only placed plans.
func (p MicroPlan) Validate(pr costmodel.Pricing, lens []int) error {
	groups, _, err := p.Placement(pr.Fleet.Topo.NumDevices())
	if err != nil {
		return err
	}
	want := map[int]int{}
	for _, l := range lens {
		want[l]++
	}
	maxDeg := pr.Fleet.MaxDegree()
	slowest := 0.0
	for _, g := range groups {
		if !g.Placed() && !pr.Uniform() {
			return fmt.Errorf("planner: group %v has no device range", g)
		}
		if g.Degree > maxDeg {
			return fmt.Errorf("planner: group %v exceeds the SP degree cap %d", g, maxDeg)
		}
		c := pr.Group(g.Range)
		if !c.Fits(g.Lens, g.Degree) {
			return fmt.Errorf("planner: group %v on %v exceeds device memory", g, g.Range)
		}
		slowest = max(slowest, g.Time(c))
		for _, l := range g.Lens {
			want[l]--
			if want[l] < 0 {
				return fmt.Errorf("planner: unexpected sequence of length %d", l)
			}
		}
	}
	for l, n := range want {
		if n != 0 {
			return fmt.Errorf("planner: %d sequences of length %d unassigned", n, l)
		}
	}
	if p.Time != slowest {
		return fmt.Errorf("planner: plan time %v is not its slowest group's %v", p.Time, slowest)
	}
	return nil
}

// recomputeTime refreshes p.Time, pricing each group by its device range.
func (p *MicroPlan) recomputeTime(pr costmodel.Pricing) {
	p.Time = 0
	for _, g := range p.Groups {
		if t := g.Time(pr.Group(g.Range)); t > p.Time {
			p.Time = t
		}
	}
}

// Strategy selects the planning algorithm.
type Strategy int

const (
	// StrategyEnum is the default enumerative solver.
	StrategyEnum Strategy = iota
	// StrategyMILP solves problem (17) with branch and bound.
	StrategyMILP
	// StrategyGreedy is the naive smallest-feasible-group baseline.
	StrategyGreedy
)

func (s Strategy) String() string {
	switch s {
	case StrategyEnum:
		return "enum"
	case StrategyMILP:
		return "milp"
	case StrategyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ErrInfeasible is returned when a micro-batch cannot fit the cluster under
// any group configuration.
var ErrInfeasible = fmt.Errorf("planner: micro-batch does not fit cluster memory")

// BucketMode selects the sequence-bucketing algorithm feeding the solver.
type BucketMode int

const (
	// BucketDP is the paper's adaptive dynamic-programming bucketing.
	BucketDP BucketMode = iota
	// BucketNaive uses fixed 2K-wide intervals (the §4.1.3 strawman).
	BucketNaive
	// BucketNone disables bucketing: every distinct length is its own
	// bucket (the "w/o BKT" ablation — accurate but far more expensive for
	// the MILP path).
	BucketNone
)

func (b BucketMode) String() string {
	switch b {
	case BucketDP:
		return "dp"
	case BucketNaive:
		return "naive"
	case BucketNone:
		return "none"
	default:
		return fmt.Sprintf("BucketMode(%d)", int(b))
	}
}

// NaiveBucketWidth is the fixed interval width of BucketNaive.
const NaiveBucketWidth = 2 << 10
