package planner

import (
	"math"

	"flexsp/internal/bucket"
	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

// LowerBound bounds from below the makespan of every valid plan of a
// micro-batch under one planner's pricing, whichever strategy produced the
// plan — greedy, enum, the MILPs, a plan-cache retarget or a warm-store
// plan alike. Alg. 1's bounded trial walk (internal/solver) uses
// it to abandon a micro-batch count before planning all its micro-batches.
//
// Per usable SP degree d it keeps each affine piece of the group time
// (Coeffs.Pieces) at the least coefficients any aligned range of size d
// gets (one value on a uniform fleet, the fastest class on a mixed or
// derated one) and the most tokens such a group can hold. β2 is left out.
type LowerBound struct {
	degrees []degreeBound // usable SP degrees, ascending
	// alpha1, alpha2 and beta1 are the minima over every range.
	alpha1, alpha2, beta1 float64
	// speed is the fleet's compute in units of its fastest range: Σ over
	// devices of 1/κ, where a range's slowdown κ ≥ 1 is the largest factor
	// by which both its α1 and α2 exceed the minima, and a device takes the
	// smallest κ of the ranges holding it. It is the device count on a
	// uniform fleet.
	speed float64
}

// degreeBound is the cheapest pricing of a degree-d group over the aligned
// ranges of size d.
type degreeBound struct {
	// pieces are the degree's time pieces, each coefficient but β2 the
	// least over the ranges. The first holds the compute terms and, for
	// Ulysses, the per-token all-to-all seconds; ring CP's second holds its
	// traffic.
	pieces []costmodel.Piece
	// dComm is the least d·comm/κ over the ranges, with comm the first
	// piece's: a sequence's speed-weighted share of the group's
	// communication.
	dComm float64
	// maxTokens exceeds the token count of every group of this degree that
	// fits memory (Coeffs.Fits admits up to d·(E−M_ms)/M_token tokens, just
	// above the integer capacity the planners use).
	maxTokens float64
}

// LowerBound builds the per-degree bound table for the planner's pricing.
// Build it once and reuse it: on a mixed fleet it prices every aligned
// range.
func (pl *Planner) LowerBound() *LowerBound {
	pr := pl.Pricing()
	n := pr.Fleet.Topo.NumDevices()
	inf := math.Inf(1)
	type rangePrice struct {
		r      cluster.DeviceRange
		degree int // index into lb.degrees
		first  costmodel.Piece
	}
	var ranges []rangePrice // every aligned range, on a fleet that is not uniform
	uniform := pr.Uniform()
	lb := &LowerBound{alpha1: inf, alpha2: inf, beta1: inf}
	for _, d := range pr.Fleet.SPDegrees() {
		db := degreeBound{dComm: inf}
		for start := 0; start+d <= n; start += d {
			r := cluster.DeviceRange{Start: start, Size: d}
			c := pr.Group(r)
			pieces := c.Pieces(d)
			if db.pieces == nil {
				db.pieces = pieces
			}
			for i, p := range pieces {
				lp := &db.pieces[i]
				lp.Alpha1, lp.Alpha2 = min(lp.Alpha1, p.Alpha1), min(lp.Alpha2, p.Alpha2)
				lp.Beta1, lp.Comm = min(lp.Beta1, p.Beta1), min(lp.Comm, p.Comm)
			}
			db.maxTokens = max(db.maxTokens, float64(d)*float64(c.MaxTokensPerDevice()+1))
			if uniform {
				break
			}
			ranges = append(ranges, rangePrice{r: r, degree: len(lb.degrees), first: pieces[0]})
		}
		first := db.pieces[0]
		lb.alpha1 = min(lb.alpha1, first.Alpha1)
		lb.alpha2 = min(lb.alpha2, first.Alpha2)
		lb.beta1 = min(lb.beta1, first.Beta1)
		lb.degrees = append(lb.degrees, db)
	}
	if uniform {
		for i := range lb.degrees {
			first := lb.degrees[i].pieces[0]
			lb.degrees[i].dComm = first.D * first.Comm
		}
		lb.speed = float64(n)
		return lb
	}
	weight := make([]float64, n)
	for _, rp := range ranges {
		kappa := inf
		if lb.alpha1 > 0 {
			kappa = rp.first.Alpha1 / lb.alpha1
		}
		if lb.alpha2 > 0 {
			kappa = min(kappa, rp.first.Alpha2/lb.alpha2)
		}
		if math.IsInf(kappa, 1) {
			kappa = 1
		}
		db := &lb.degrees[rp.degree]
		db.dComm = min(db.dComm, rp.first.D*rp.first.Comm/kappa)
		for i := rp.r.Start; i < rp.r.End(); i++ {
			weight[i] = max(weight[i], 1/kappa)
		}
	}
	for _, w := range weight {
		lb.speed += w
	}
	return lb
}

// Of bounds the makespan of any plan of the micro-batch by the larger of two
// terms. A group is never faster than any one of its sequences alone at the
// group's degree, under every piece of its time, so the plan takes at least
// as long as its longest sequence alone at that sequence's cheapest feasible
// degree. And the slowest group takes at least the speed-weighted mean of
// the first pieces: a group of degree d on a range of slowdown κ has
// d·(t − β1)/κ ≥ Σ_s (min α1·s² + min α2·s + d·c·s/κ), its devices add at
// most d/κ to the fleet's speed, so T ≥ min β1 + Σ_s (min α1·s² + min α2·s +
// min_d d·c(d)·s/κ) / speed. Ring CP's traffic piece takes no part in that
// mean: it binds only where the traffic of a whole group outweighs its
// attention, which no per-sequence share captures.
// Of is 0 for an empty micro-batch and +Inf when no degree holds the
// longest sequence.
func (lb *LowerBound) Of(lens []int) float64 {
	if len(lens) == 0 {
		return 0
	}
	longest, work := 0, 0.0
	for _, l := range lens {
		longest = max(longest, l)
		s := float64(l)
		comm := math.Inf(1)
		for i := range lb.degrees {
			if db := &lb.degrees[i]; s <= db.maxTokens {
				comm = min(comm, db.dComm)
			}
		}
		work += lb.alpha1*s*s + lb.alpha2*s + comm*s
	}
	s := float64(longest)
	alone := math.Inf(1)
	for i := range lb.degrees {
		if db := &lb.degrees[i]; s <= db.maxTokens {
			t := 0.0
			for _, p := range db.pieces {
				t = max(t, (p.Alpha1*s*s+p.Alpha2*s)/p.D+p.Beta1+p.Comm*s)
			}
			alone = min(alone, t)
		}
	}
	return max(alone, lb.beta1+work/lb.speed)
}

// overCapacity is the cheap infeasibility proof every strategy runs right
// after bucketing: a plan's groups occupy disjoint ranges, each holding at
// most its degree times its range's per-device capacity, and those sum to at
// most the fleet's TokenCapacity. Groups are filled at bucket-representative
// lengths, so a micro-batch whose representatives sum past the capacity has
// no plan, even when its actual lengths would fit.
func overCapacity(buckets []bucket.Bucket, capacity int) bool {
	total := 0
	for _, b := range buckets {
		total += b.Upper * b.Count()
	}
	return total > capacity
}
