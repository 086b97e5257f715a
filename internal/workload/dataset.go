// Package workload synthesizes the varied-length training corpora FlexSP is
// evaluated on. The paper (Fig. 2, §3 Observation 2) characterizes GitHub,
// CommonCrawl and Wikipedia as pronounced uni-modal long-tail distributions:
// most sequences are below 8K tokens, a small fraction exceeds 32K, GitHub
// has the heaviest tail and Wikipedia the lightest (>96% of Wikipedia below
// 8K). We model each dataset as a mixture of log-normal components — a body
// and a heavy tail — with weights chosen to match those qualitative facts.
//
// Every FlexSP decision depends only on the multiset of sequence lengths in
// a batch, so matching the distribution shape preserves all the behaviours
// the evaluation observes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Component is one log-normal mixture component over token counts.
type Component struct {
	Weight float64 // mixture weight, components must sum to 1
	Mu     float64 // mean of log-length
	Sigma  float64 // std of log-length
}

// Dataset is a synthetic corpus: a named mixture distribution over sequence
// lengths with hard bounds.
type Dataset struct {
	Name string
	Mix  []Component
	// MinLen and MaxLen clamp sampled lengths (tokens).
	MinLen, MaxLen int
}

// The three evaluation corpora. Parameters were tuned so that the share of
// sequences below 8K and above 32K matches Fig. 2's ordering:
// GitHub (longest tail) > CommonCrawl > Wikipedia (96%+ under 8K).
func GitHub() Dataset {
	return Dataset{
		Name: "GitHub",
		Mix: []Component{
			{Weight: 0.86, Mu: math.Log(1800), Sigma: 1.05},
			{Weight: 0.10, Mu: math.Log(16000), Sigma: 0.85},
			{Weight: 0.04, Mu: math.Log(90000), Sigma: 0.80},
		},
		MinLen: 32,
		MaxLen: 1 << 20,
	}
}

func CommonCrawl() Dataset {
	return Dataset{
		Name: "CommonCrawl",
		Mix: []Component{
			{Weight: 0.90, Mu: math.Log(1500), Sigma: 1.00},
			{Weight: 0.08, Mu: math.Log(12000), Sigma: 0.80},
			{Weight: 0.02, Mu: math.Log(70000), Sigma: 0.80},
		},
		MinLen: 32,
		MaxLen: 1 << 20,
	}
}

func Wikipedia() Dataset {
	return Dataset{
		Name: "Wikipedia",
		Mix: []Component{
			{Weight: 0.955, Mu: math.Log(1200), Sigma: 0.85},
			{Weight: 0.040, Mu: math.Log(6000), Sigma: 0.70},
			{Weight: 0.005, Mu: math.Log(50000), Sigma: 0.70},
		},
		MinLen: 32,
		MaxLen: 1 << 20,
	}
}

// Datasets lists the evaluation corpora in paper order.
func Datasets() []Dataset { return []Dataset{GitHub(), CommonCrawl(), Wikipedia()} }

// Validate reports whether the mixture is well formed.
func (d Dataset) Validate() error {
	if len(d.Mix) == 0 {
		return fmt.Errorf("workload: %s has no components", d.Name)
	}
	var sum float64
	for _, c := range d.Mix {
		if c.Weight < 0 || c.Sigma <= 0 {
			return fmt.Errorf("workload: %s has invalid component %+v", d.Name, c)
		}
		sum += c.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("workload: %s weights sum to %v, want 1", d.Name, sum)
	}
	if d.MinLen <= 0 || d.MaxLen < d.MinLen {
		return fmt.Errorf("workload: %s has invalid bounds [%d, %d]", d.Name, d.MinLen, d.MaxLen)
	}
	return nil
}

// Sample draws one sequence length.
func (d Dataset) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	comp := d.Mix[len(d.Mix)-1]
	for _, c := range d.Mix {
		acc += c.Weight
		if u <= acc {
			comp = c
			break
		}
	}
	l := int(math.Exp(comp.Mu + comp.Sigma*rng.NormFloat64()))
	if l < d.MinLen {
		l = d.MinLen
	}
	if l > d.MaxLen {
		l = d.MaxLen
	}
	return l
}

// SampleN draws n sequence lengths.
func (d Dataset) SampleN(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// Batch draws a training batch of batchSize sequences, applying the paper's
// protocol (§6.1): sequences longer than maxCtx are eliminated (re-drawn so
// the batch size is preserved, mirroring a filtered corpus).
func (d Dataset) Batch(rng *rand.Rand, batchSize, maxCtx int) []int {
	out := make([]int, 0, batchSize)
	for len(out) < batchSize {
		l := d.Sample(rng)
		if l > maxCtx {
			continue
		}
		out = append(out, l)
	}
	return out
}

// FractionBelow estimates the probability that a sampled length is ≤ s, from
// n Monte-Carlo draws.
func (d Dataset) FractionBelow(rng *rand.Rand, s, n int) float64 {
	count := 0
	for i := 0; i < n; i++ {
		if d.Sample(rng) <= s {
			count++
		}
	}
	return float64(count) / float64(n)
}

// Histogram bins lengths into the paper's Fig. 2 ranges and returns the
// fraction of sequences per bin.
type Histogram struct {
	Edges  []int // bin upper bounds, ascending; last bin is open
	Counts []int
	Total  int
}

// Fig2Edges are the length-range boundaries used in the paper's Fig. 2.
func Fig2Edges() []int {
	return []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
}

// BuildHistogram bins the given lengths.
func BuildHistogram(lens []int, edges []int) Histogram {
	h := Histogram{Edges: edges, Counts: make([]int, len(edges)+1), Total: len(lens)}
	for _, l := range lens {
		i := sort.SearchInts(edges, l)
		h.Counts[i]++
	}
	return h
}

// Fractions returns per-bin fractions.
func (h Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}

// TotalTokens sums a length multiset.
func TotalTokens(lens []int) int {
	var t int
	for _, l := range lens {
		t += l
	}
	return t
}
