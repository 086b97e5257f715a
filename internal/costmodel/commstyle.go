package costmodel

import "fmt"

// CommStyle selects how a sequence-parallel group exchanges activations.
//
// The paper's system uses Ulysses-style SP (all-to-all resharding, §2.1.2);
// Appendix E sketches integrating context parallelism (ring K/V exchange,
// overlapped with attention) as future work — "we can employ the flexible
// sequence parallelism strategy of FlexSP to achieve flexible CP". This
// package implements both so the planner can drive either.
type CommStyle int

const (
	// StyleUlysses is DeepSpeed-Ulysses all-to-all SP (default).
	StyleUlysses CommStyle = iota
	// StyleRingCP is ring-attention context parallelism: K and V chunks
	// circulate around the group, hidden under attention compute chunk by
	// chunk; only the excess communication is exposed.
	StyleRingCP
)

func (s CommStyle) String() string {
	switch s {
	case StyleUlysses:
		return "ulysses"
	case StyleRingCP:
		return "ring-cp"
	default:
		return fmt.Sprintf("CommStyle(%d)", int(s))
	}
}

// ringBytesPerToken is the per-device ring traffic per sequence token for a
// CP group of the given degree: (d−1) hops of the K,V chunk (2 tensors,
// 1/d of the sequence each) per layer.
func (c Coeffs) ringBytesPerToken(degree int) float64 {
	d := float64(degree)
	return 2 * 2 * float64(c.Model.HiddenDim) * float64(c.Model.Layers) * (d - 1) / d
}

// ringPerTokenTime is the seconds of ring communication per token at the
// given degree, on the bandwidth the group's placement provides (NVLink
// inside a node; the per-device NIC share across nodes — ring steps are
// lock-stepped on the slowest hop).
func (c Coeffs) ringPerTokenTime(degree int) float64 {
	if degree <= 1 {
		return 0
	}
	bw := c.Topo.IntraBW
	if degree > c.Topo.DevicesPerNode {
		bw = c.Topo.InterBWPerDevice()
	}
	return c.ringBytesPerToken(degree) / bw
}

// GroupTimeSums evaluates the group execution time (Eq. 14 generalized over
// communication styles) directly from the running sums Σs and Σs² the
// planner maintains. ComputeTime/CommTime/GroupTime are thin wrappers.
func (c Coeffs) GroupTimeSums(sumS, sumS2 float64, degree int) float64 {
	if sumS == 0 {
		return 0
	}
	d := float64(degree)
	comp := (c.Alpha1*sumS2+c.Alpha2*sumS)/d + c.Beta1
	return comp + c.commTimeSums(sumS, sumS2, degree)
}

// commTimeSums is the communication part of GroupTimeSums.
func (c Coeffs) commTimeSums(sumS, sumS2 float64, degree int) float64 {
	if degree <= 1 || sumS == 0 {
		return 0
	}
	switch c.Style {
	case StyleRingCP:
		ring := sumS * c.ringPerTokenTime(degree)
		attn := c.Alpha1 * sumS2 / float64(degree)
		exposed := ring - attn
		if exposed < 0 {
			exposed = 0
		}
		return exposed + c.Beta2
	default:
		return c.Topo.AllToAllTime(sumS*c.AllToAllBytesPerToken, degree) + c.Beta2
	}
}

// Piece is one affine piece of a group's Eq. 14 time in the running sums Σs
// and Σs² (see Coeffs.Pieces).
type Piece struct {
	// Alpha1 and Alpha2 multiply Σs² and Σs; D is the degree dividing them.
	Alpha1, Alpha2, D float64
	// Beta1 is the compute launch overhead.
	Beta1 float64
	// Comm is the per-token communication seconds and Beta2 its launch
	// overhead, both 0 at degree 1.
	Comm, Beta2 float64
}

// Time evaluates the piece as (α1·Σs² + α2·Σs)/d + β1 + (Σs·comm + β2): the
// compute term, then the communication term, with the launch overheads
// kept apart so that a Ulysses piece sums exactly as the planner's affine
// forms always have.
func (p Piece) Time(sumS, sumS2 float64) float64 {
	return (p.Alpha1*sumS2+p.Alpha2*sumS)/p.D + p.Beta1 + (sumS*p.Comm + p.Beta2)
}

// Pieces returns the affine pieces in (Σs², Σs) whose maximum is the Eq. 14
// time of a non-empty degree-d group: GroupTimeSums up to rounding, in a
// form linear consumers (the planner's assignment scan, the MILP rows, the
// lower bound) can use. Ulysses, and any group at degree 1, has one piece.
// Ring CP at d > 1 has two, because its traffic hides under attention: the
// compute-bound (α1·Σs² + α2·Σs)/d + β1 + β2, and the traffic-bound
// α2·Σs/d + ρ(d)·Σs + β1 + β2, where ρ(d) is the per-token ring time.
func (c Coeffs) Pieces(degree int) []Piece {
	p := Piece{Alpha1: c.Alpha1, Alpha2: c.Alpha2, D: float64(degree), Beta1: c.Beta1}
	if degree <= 1 {
		return []Piece{p}
	}
	p.Beta2 = c.Beta2
	if c.Style != StyleRingCP {
		p.Comm = c.Topo.AllToAllTime(c.AllToAllBytesPerToken, degree)
		return []Piece{p}
	}
	traffic := p
	traffic.Alpha1 = 0
	traffic.Comm = c.ringPerTokenTime(degree)
	return []Piece{p, traffic}
}

// WithStyle returns the coefficients with the communication style replaced.
func (c Coeffs) WithStyle(s CommStyle) Coeffs {
	c.Style = s
	return c
}
