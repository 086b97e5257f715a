package planner

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// TestOrderedScanMatchesFullScan checks the ordered, bounded configuration
// scan against placing every configuration in full, on the window
// micro-batches of the planDumpBatches under every planDumpFleets pricing
// and on a scalar 128-device fleet, whose configurations come from
// searchConfigs. It checks that
//   - every configuration's bound is at most the LPT span of each of its
//     placements, and the water level before every item of every
//     placement, and once all are placed, is at most that placement's final
//     span, both up to the boundSlack the scan allows (they round
//     differently from the span: a lone group's bound equals its span);
//   - the refine set run returns equals, in members and order, the one the
//     full scan gives: its refineTop candidates of smallest (span,
//     enumeration index), then every other homogeneous one in that order;
//   - every enum plan passes MicroPlan.Validate.
func TestOrderedScanMatchesFullScan(t *testing.T) {
	fleets := append(planDumpFleets(t), milpFleet{"scalar-128", New(coeffs(128))})
	_, batches := planDumpBatches()
	for _, fl := range fleets {
		t.Run(fl.name, func(t *testing.T) {
			t.Parallel()
			for _, batch := range batches {
				for _, lens := range windowMicroBatches(fl.pl, batch) {
					checkOrderedScan(t, fl.pl, lens)
					p, err := fl.pl.Plan(lens)
					validPlan(t, fl.pl, lens, p, err)
				}
			}
		})
	}
}

func checkOrderedScan(t *testing.T, pl *Planner, lens []int) {
	t.Helper()
	sc, err := pl.newConfigScan(lens)
	if err != nil {
		return // no configuration to scan
	}
	got := sc.run()
	var full []candidate
	for _, e := range sc.order {
		degrees, layouts := sc.layouts(int(e.config))
		for _, lay := range layouts {
			// Place one item at a time, reading the water level before each.
			sc.a.reconfigure(sc.memo, degrees, lay.ranges)
			span, water, ok := 0.0, 0.0, true
			for i := range sc.items {
				water = max(water, sc.a.water(&sc.rest, i))
				placed, itemSpan := sc.a.placeBounded(sc.items[i:i+1], nil, math.Inf(1))
				if !placed {
					ok = false
					break
				}
				span = max(span, itemSpan)
			}
			if !ok {
				continue
			}
			water = max(water, sc.a.water(&sc.rest, len(sc.items)))
			if e.bound > span*(1+boundSlack) {
				t.Errorf("%d sequences, degrees %v on %v: bound %v above the span %v", len(lens), degrees, lay.ranges, e.bound, span)
			}
			if water > span*(1+boundSlack) {
				t.Errorf("%d sequences, degrees %v on %v: water level %v above the span %v", len(lens), degrees, lay.ranges, water, span)
			}
			full = append(full, candidate{span: span, index: sc.index(e.config, lay.bias), homogeneous: e.homogeneous})
		}
	}
	slices.SortFunc(full, func(x, y candidate) int {
		return cmp.Or(cmp.Compare(x.span, y.span), cmp.Compare(x.index, y.index))
	})
	want := slices.Clone(full[:min(refineTop, len(full))])
	for _, cd := range full[len(want):] {
		if cd.homogeneous {
			want = append(want, cd)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%d sequences: ordered scan refines %v, the full scan %v", len(lens), got, want)
	}
}
