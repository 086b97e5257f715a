package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// placeGroupsScan is the per-slot scan PlaceGroupsScored used before slot
// rankings, kept as the reference the ranked placement must reproduce: for
// each group, largest first, score every free aligned slot and take the best,
// ties to the lowest start.
func placeGroupsScan(n int, degrees []int, score func(DeviceRange) float64) (GroupPlacement, error) {
	total := 0
	for _, d := range degrees {
		if d <= 0 || d&(d-1) != 0 {
			return GroupPlacement{}, fmt.Errorf("cluster: degree %d is not a power of two", d)
		}
		total += d
	}
	if total > n {
		return GroupPlacement{}, fmt.Errorf("cluster: degrees sum to %d > %d devices", total, n)
	}

	idx := make([]int, len(degrees))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return degrees[idx[a]] > degrees[idx[b]] })

	used := make([]bool, n)
	ranges := make([]DeviceRange, len(degrees))
	for _, i := range idx {
		d := degrees[i]
		best, bestScore := -1, 0.0
		for start := 0; start+d <= n; start += d {
			free := true
			for dev := start; dev < start+d; dev++ {
				if used[dev] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			if score == nil {
				best = start
				break
			}
			if s := score(DeviceRange{Start: start, Size: d}); best == -1 || s > bestScore {
				best, bestScore = start, s
			}
		}
		if best == -1 {
			return GroupPlacement{}, fmt.Errorf("cluster: no aligned slot for degree %d", d)
		}
		for dev := best; dev < best+d; dev++ {
			used[dev] = true
		}
		ranges[i] = DeviceRange{Start: best, Size: d}
	}
	return GroupPlacement{Ranges: ranges}, nil
}

// randomDegrees draws a power-of-two degree multiset for an n-device fleet:
// usually within capacity, sometimes over it, and in one draw of eight
// containing an invalid degree, so error paths are compared too.
func randomDegrees(rng *rand.Rand, n int) []int {
	budget := n
	if rng.Intn(6) == 0 {
		budget += 1 << rng.Intn(4) // oversubscribe
	}
	var degrees []int
	for remaining := budget; remaining > 0 && rng.Intn(10) != 0; {
		maxExp := 0
		for 1<<(maxExp+1) <= remaining {
			maxExp++
		}
		d := 1 << rng.Intn(maxExp+1)
		degrees = append(degrees, d)
		remaining -= d
	}
	if len(degrees) > 0 && rng.Intn(8) == 0 {
		degrees[rng.Intn(len(degrees))] = []int{0, 3, -2, 12}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	} else {
		rng.Shuffle(len(degrees), func(i, j int) { degrees[i], degrees[j] = degrees[j], degrees[i] })
	}
	return degrees
}

// TestRankedPlacementMatchesScan checks the ranked placement against the
// per-slot scan on random degree multisets (shuffled and non-increasing),
// under no score, a per-class score with many ties, and a pseudo-random
// per-slot score, on fleets including a node-down 56 and 128- and
// 256-device fleets whose bitsets span several words. Ranges and errors must be equal, through
// PlaceGroupsScored and through one SlotRanking reused across placements.
func TestRankedPlacementMatchesScan(t *testing.T) {
	scores := map[string]func(int) func(DeviceRange) float64{
		"nil": func(int) func(DeviceRange) float64 { return nil },
		// Two device classes by node parity: every slot inside one class
		// ties, and a slot spanning both scores by its slowest class.
		"class": func(int) func(DeviceRange) float64 {
			return func(r DeviceRange) float64 {
				if r.Size > 8 {
					return 1
				}
				return float64(2 - (r.Start/8)%2)
			}
		},
		"shuffle": func(seed int) func(DeviceRange) float64 {
			return func(r DeviceRange) float64 {
				f := fnv.New64a()
				fmt.Fprintf(f, "%d/%d/%d", seed, r.Start, r.Size)
				return float64(f.Sum64())
			}
		},
	}
	for _, n := range []int{8, 16, 56, 64, 128, 256} {
		for name, mk := range scores {
			rng := rand.New(rand.NewSource(int64(n)))
			score := mk(n)
			rk := RankSlots(n, score)
			for trial := 0; trial < 400; trial++ {
				degrees := randomDegrees(rng, n)
				want, wantErr := placeGroupsScan(n, degrees, score)
				got, gotErr := PlaceGroupsScored(n, degrees, score)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d score=%s degrees=%v: ranked %v (%v), scan %v (%v)",
						n, name, degrees, got.Ranges, gotErr, want.Ranges, wantErr)
				}
				reused, err := rk.AppendPlace(nil, degrees)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(reused, want.Ranges) {
					t.Fatalf("n=%d score=%s degrees=%v: reused ranking %v (%v), scan %v (%v)",
						n, name, degrees, reused, err, want.Ranges, wantErr)
				}
			}
		}
	}
}

// Degenerate fleets fail exactly as the scan does, without panicking.
func TestRankedPlacementDegenerateFleets(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 3} {
		for _, degrees := range [][]int{nil, {1}, {2}, {1, 1}, {4}} {
			want, wantErr := placeGroupsScan(n, degrees, nil)
			got, gotErr := PlaceGroups(n, degrees)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d degrees=%v: ranked %v (%v), scan %v (%v)", n, degrees, got.Ranges, gotErr, want.Ranges, wantErr)
			}
		}
	}
}

func TestAppendPlaceKeepsPrefix(t *testing.T) {
	rk := RankSlots(16, nil)
	prefix := []DeviceRange{{Start: 0, Size: 4}}
	out, err := rk.AppendPlace(prefix, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []DeviceRange{{Start: 0, Size: 4}, {Start: 8, Size: 4}, {Start: 0, Size: 8}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("AppendPlace = %v, want %v", out, want)
	}
	if out, err := rk.AppendPlace(prefix, []int{16, 1}); err == nil || len(out) != 1 {
		t.Fatalf("oversubscribed AppendPlace = %v, %v; want the prefix and an error", out, err)
	}
}
