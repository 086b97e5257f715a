package costmodel

import (
	"fmt"
	"math"
	"testing"

	"flexsp/internal/cluster"
)

func ringCoeffs() Coeffs {
	return Profile(GPT7B, cluster.A100Cluster(64)).WithStyle(StyleRingCP)
}

func TestCommStyleString(t *testing.T) {
	if StyleUlysses.String() != "ulysses" || StyleRingCP.String() != "ring-cp" ||
		CommStyle(9).String() == "" {
		t.Fatal("CommStyle.String mismatch")
	}
}

// Ring CP hides its communication under attention for long sequences but
// exposes it for short ones (paper Appendix D: "the attention computation
// often fails to hide the communication" on short-sequence corpora).
func TestRingCPOverlapBehaviour(t *testing.T) {
	c := ringCoeffs()
	shortComm := c.CommTime([]int{4 << 10}, 16)
	longComm := c.CommTime([]int{256 << 10}, 16)
	if shortComm <= c.Beta2 {
		t.Fatalf("short-sequence ring comm %.4f should be exposed", shortComm)
	}
	if longComm > c.Beta2+1e-9 {
		t.Fatalf("long-sequence ring comm %.4f should be fully hidden (quadratic attention)", longComm)
	}
}

// For short sequences at inter-node degrees, ring CP exposes more
// communication than Ulysses all-to-all — the reason the paper prefers
// Ulysses SP as the primary mechanism.
func TestRingCPWorseThanUlyssesForShortSeqs(t *testing.T) {
	base := Profile(GPT7B, cluster.A100Cluster(64))
	lens := make([]int, 32)
	for i := range lens {
		lens[i] = 4 << 10
	}
	uly := base.CommTime(lens, 32)
	ring := base.WithStyle(StyleRingCP).CommTime(lens, 32)
	if ring <= uly {
		t.Fatalf("ring CP (%.3fs) should exceed Ulysses (%.3fs) on short sequences", ring, uly)
	}
}

func TestGroupTimeSumsConsistency(t *testing.T) {
	for _, c := range []Coeffs{Profile(GPT7B, cluster.A100Cluster(64)), ringCoeffs()} {
		lens := []int{1000, 3000, 9000}
		var sumS, sumS2 float64
		for _, l := range lens {
			sumS += float64(l)
			sumS2 += float64(l) * float64(l)
		}
		direct := c.GroupTime(lens, 8)
		viaSums := c.GroupTimeSums(sumS, sumS2, 8)
		if diff := direct - viaSums; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("%s: GroupTime %.9f != GroupTimeSums %.9f", c.Style, direct, viaSums)
		}
	}
}

// The largest of Pieces(d) is the group's Eq. 14 time: it equals
// GroupTimeSums to 1e-12 relative under both communication styles, at every
// degree, on a scalar fleet and on every aligned range of an A100+H100 one.
// The batches run from short sequences, whose ring traffic is exposed, to
// long ones, whose traffic hides under attention, so each ring piece is the
// larger one somewhere.
func TestPiecesMaxEqualsGroupTimeSums(t *testing.T) {
	m := mixed(t,
		cluster.ClassCount{Class: cluster.A100_40G, Devices: 32},
		cluster.ClassCount{Class: cluster.H100, Devices: 32})
	hc := ProfileMixed(GPT7B, m)
	batches := [][]int{{500}, {4 << 10}, {1000, 3000, 9000}, {64 << 10, 8 << 10}, {256 << 10}}
	for _, style := range []CommStyle{StyleUlysses, StyleRingCP} {
		binds := make([]int, 2)
		check := func(where string, c Coeffs, d int) {
			pieces, want := c.Pieces(d), 1
			if style == StyleRingCP && d > 1 {
				want = 2
			}
			if len(pieces) != want {
				t.Fatalf("%s %s d=%d: %d pieces, want %d", style, where, d, len(pieces), want)
			}
			for _, lens := range batches {
				sumS, sumS2 := sums(lens)
				got, arg := 0.0, 0
				for i, p := range pieces {
					if pt := p.Time(sumS, sumS2); pt > got {
						got, arg = pt, i
					}
				}
				binds[arg]++
				if want := c.GroupTimeSums(sumS, sumS2, d); math.Abs(got-want) > 1e-12*want {
					t.Errorf("%s %s d=%d lens %v: max piece %.15g, GroupTimeSums %.15g", style, where, d, lens, got, want)
				}
			}
		}
		c := Profile(GPT7B, cluster.A100Cluster(64)).WithStyle(style)
		for _, d := range c.SPDegrees() {
			check("scalar", c, d)
		}
		h := hc.WithStyle(style)
		for _, d := range h.SPDegrees() {
			for _, r := range m.AlignedSlots(d) {
				check(fmt.Sprintf("range %v", r), h.Group(r).Coeffs, d)
			}
		}
		if style == StyleRingCP && (binds[0] == 0 || binds[1] == 0) {
			t.Errorf("ring pieces never both bind: compute %d, traffic %d", binds[0], binds[1])
		}
	}
}
