package main

import (
	"fmt"
	"math"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
)

// fleetCost is the cost model a served plan must be valid on: the scalar
// model of a static fleet, or the placed model of one elastic snapshot.
type fleetCost struct {
	scalar *costmodel.Coeffs
	hetero *costmodel.HeteroCoeffs
}

func scalarFleet(c costmodel.Coeffs) fleetCost       { return fleetCost{scalar: &c} }
func placedFleet(h costmodel.HeteroCoeffs) fleetCost { return fleetCost{hetero: &h} }
func (f fleetCost) devices() int {
	if f.hetero != nil {
		return f.hetero.Mixed.NumDevices()
	}
	return f.scalar.Topo.NumDevices()
}

// groupCost prices one group under the fleet's cost model. Placed fleets
// price the group's device range; the range must already be validated.
func (f fleetCost) groupCost(g planner.Group) costmodel.Coeffs {
	if f.hetero != nil {
		return f.hetero.Group(g.Range).Coeffs
	}
	return *f.scalar
}

// relEqual compares modelled seconds that the program computes by the same
// float sums the checker repeats, allowing only reassociation error.
func relEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkPlan verifies one served plan from outside the planner:
//   - every sequence of the batch is placed exactly once;
//   - every group has a power-of-two degree within the live device count and
//     fits device memory under the fleet's cost model;
//   - on a placed fleet, group ranges match their degree, are aligned,
//     disjoint and within the live devices; on a scalar fleet a micro-batch
//     uses at most the fleet's devices;
//   - each micro-batch's time is its slowest group's cost-model time, the
//     estimate is their sum, and m counts the micro-batches.
func checkPlan(lens []int, plans []planner.MicroPlan, est float64, m int, f fleetCost) error {
	n := f.devices()
	want := make(map[int]int, len(lens))
	for _, l := range lens {
		want[l]++
	}
	var total float64
	for i, mp := range plans {
		used := make([]bool, n)
		devices := 0
		var slowest float64
		for _, g := range mp.Groups {
			if len(g.Lens) == 0 {
				continue
			}
			d := g.Degree
			if d < 1 || d > n || d&(d-1) != 0 {
				return fmt.Errorf("micro-batch %d: invalid degree %d on %d devices", i, d, n)
			}
			devices += d
			if f.hetero != nil {
				r := g.Range
				if r.Size != d || r.Start < 0 || r.Start%d != 0 || r.End() > n {
					return fmt.Errorf("micro-batch %d: group of degree %d has range %v on %d devices", i, d, r, n)
				}
				for dev := r.Start; dev < r.End(); dev++ {
					if used[dev] {
						return fmt.Errorf("micro-batch %d: device %d placed twice", i, dev)
					}
					used[dev] = true
				}
			} else if g.Range != (cluster.DeviceRange{}) {
				return fmt.Errorf("micro-batch %d: static fleet plan carries range %v", i, g.Range)
			}
			c := f.groupCost(g)
			if !c.Fits(g.Lens, d) {
				return fmt.Errorf("micro-batch %d: group of degree %d with %d tokens exceeds memory", i, d, g.Tokens())
			}
			if t := c.GroupTime(g.Lens, d); t > slowest {
				slowest = t
			}
			for _, l := range g.Lens {
				want[l]--
				if want[l] < 0 {
					return fmt.Errorf("micro-batch %d: sequence of length %d placed more often than the batch holds it", i, l)
				}
			}
		}
		if devices > n {
			return fmt.Errorf("micro-batch %d: uses %d devices of %d", i, devices, n)
		}
		if !relEqual(slowest, mp.Time) {
			return fmt.Errorf("micro-batch %d: time %v, slowest group costs %v", i, mp.Time, slowest)
		}
		total += mp.Time
	}
	for l, c := range want {
		if c != 0 {
			return fmt.Errorf("%d sequences of length %d not placed", c, l)
		}
	}
	if m != len(plans) {
		return fmt.Errorf("m = %d for %d micro-batches", m, len(plans))
	}
	if !relEqual(total, est) {
		return fmt.Errorf("estimate %v, micro-batch times sum to %v", est, total)
	}
	return nil
}
