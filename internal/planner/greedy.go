package planner

import (
	"sort"
)

// planGreedy is the naive assignment the paper's introduction argues
// against: each sequence goes to the smallest SP group that can handle it,
// with no time balancing. Because short sequences dominate long-tail
// corpora, small groups become the bottleneck (§1, "Time-Balanced Sequence
// Assignment"). Kept as an ablation baseline. It plans with Coeffs — on a
// mixed fleet the class-oblivious bottleneck view, every device assumed as
// slow and small as the worst class.
func (pl *Planner) planGreedy(lens []int) (MicroPlan, error) {
	if len(lens) == 0 {
		return MicroPlan{}, nil
	}
	c := pl.Coeffs
	n := c.Topo.NumDevices()

	sorted := append([]int(nil), lens...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))

	type ggroup struct {
		degree int
		lens   []int
		tokens int64
		cap    int64
	}
	var groups []ggroup
	devicesLeft := n

	for _, s := range sorted {
		dmin := c.MinDegreeFor(s)
		if dmin == 0 {
			return MicroPlan{}, ErrInfeasible
		}
		// Smallest-degree existing group with headroom.
		best := -1
		for g := range groups {
			if groups[g].degree < dmin {
				continue
			}
			if groups[g].tokens+int64(s) > groups[g].cap {
				continue
			}
			if best == -1 || groups[g].degree < groups[best].degree ||
				(groups[g].degree == groups[best].degree && groups[g].tokens < groups[best].tokens) {
				best = g
			}
		}
		// Prefer opening a brand-new minimal group when devices remain —
		// that is exactly the naive "smallest group that can handle it"
		// policy.
		if devicesLeft >= dmin && (best == -1 || groups[best].degree > dmin) {
			groups = append(groups, ggroup{
				degree: dmin,
				lens:   []int{s},
				tokens: int64(s),
				cap:    int64(c.MaxTokensPerGroup(dmin)),
			})
			devicesLeft -= dmin
			continue
		}
		if best == -1 {
			return MicroPlan{}, ErrInfeasible
		}
		groups[best].lens = append(groups[best].lens, s)
		groups[best].tokens += int64(s)
	}

	var p MicroPlan
	for _, g := range groups {
		p.Groups = append(p.Groups, Group{Degree: g.degree, Lens: g.lens})
	}
	sort.SliceStable(p.Groups, func(i, j int) bool { return p.Groups[i].Degree > p.Groups[j].Degree })
	if pl.Places() {
		// Class-oblivious to the end: the groups land lowest-address-first
		// and only then get priced by the classes they actually occupy —
		// the behaviour the heterogeneous experiment measures the
		// placement-aware planner against. Plans built on the bottleneck
		// model always fit: every class has at least its memory.
		_, ranges, err := p.Placement(n)
		if err != nil {
			return MicroPlan{}, err
		}
		for i := range p.Groups {
			p.Groups[i].Range = ranges[i]
		}
	}
	p.recomputeTime(pl.Pricing())
	return p, nil
}
