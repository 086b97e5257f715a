package main

import (
	"math/rand"
	"sort"

	"flexsp/internal/workload"
)

// maxCtx is the context limit every batch is drawn at (paper §6.1 protocol:
// longer sequences are re-drawn).
const maxCtx = 192 << 10

// corpora is the rotation every batch source follows, so each workload sees
// the same mix of tail weights.
var corpora = []workload.Dataset{workload.CommonCrawl(), workload.GitHub(), workload.Wikipedia()}

// Independent random streams derived from one --seed, so adding draws to
// one stream never shifts another.
const (
	streamBatches = 1
	streamEvents  = 2
	streamWarmup  = 3
)

func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// batchSource yields seed-determined batches of a fixed size, rotating
// through the corpora. Each batch is a systematic sample of an eight times
// larger draw: the draw is sorted and every eighth length kept, then
// shuffled. The batch keeps its corpus's length distribution, long tail
// included, but how many long sequences it holds varies far less between
// batches, so a run's figures depend much less on its seed.
type batchSource struct {
	rng  *rand.Rand
	size int
	n    int
}

// oversample is how many lengths are drawn per length kept.
const oversample = 8

func newBatchSource(seed, stream int64, size int) *batchSource {
	return &batchSource{rng: newRand(seed, stream), size: size}
}

func (b *batchSource) next() []int {
	d := corpora[b.n%len(corpora)]
	b.n++
	draw := d.Batch(b.rng, oversample*b.size, maxCtx)
	sort.Ints(draw)
	out := make([]int, b.size)
	for i := range out {
		out[i] = draw[oversample*i+oversample/2]
	}
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// take draws n batches.
func (b *batchSource) take(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = b.next()
	}
	return out
}
