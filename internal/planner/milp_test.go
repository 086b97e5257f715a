package planner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"flexsp/internal/cluster"
	"flexsp/internal/costmodel"
)

// milpWarmStart runs StrategyMILP up to the solve: it builds problem (17)
// for lens and encodes the enumerative plan as the incumbent (nil when the
// plan does not encode or enum finds none).
func milpWarmStart(pl *Planner, lens []int) (*milpModel, MicroPlan, []float64, error) {
	f, err := pl.buildMILP(lens)
	if err != nil {
		return nil, MicroPlan{}, nil, err
	}
	warm, err := pl.planEnum(context.Background(), lens)
	if err != nil {
		return f, MicroPlan{}, nil, nil
	}
	return f, warm, f.encode(warm), nil
}

var updateMILPGolden = flag.Bool("update-milp-golden", false,
	"rewrite testdata/milp_models.golden from the current MILP builder")

// milpFleet is one planner of the MILP model corpus.
type milpFleet struct {
	name string
	pl   *Planner
}

// milpCorpus is the planners the MILP model golden and the incumbent round
// trip cover: scalar fleets (Ulysses, ring CP, an SP degree cap of 4),
// NewHetero single-class fleets, and A100+H100 fleets under both
// communication styles, on 8 and 16 devices.
func milpCorpus(t *testing.T) []milpFleet {
	t.Helper()
	single := func(n int) *Planner {
		m, err := cluster.MixedCluster(cluster.ClassCount{Class: cluster.A100_40G, Devices: n})
		if err != nil {
			t.Fatal(err)
		}
		return NewHetero(costmodel.ProfileMixed(costmodel.GPT7B, m))
	}
	mixed := func(half int, style costmodel.CommStyle) *Planner {
		return NewHetero(mixedFleet(t, half, half).WithStyle(style))
	}
	return []milpFleet{
		{"scalar-8", New(coeffs(8))},
		{"scalar-16-ring", New(coeffs(16).WithStyle(costmodel.StyleRingCP))},
		{"scalar-16-cap4", New(coeffs(16).WithSPDegreeCap(4))},
		{"single-8", single(8)},
		{"single-16", single(16)},
		{"mixed-4+4", mixed(4, costmodel.StyleUlysses)},
		{"mixed-8+8", mixed(8, costmodel.StyleUlysses)},
		{"mixed-4+4-ring", mixed(4, costmodel.StyleRingCP)},
		{"mixed-8+8-ring", mixed(8, costmodel.StyleRingCP)},
	}
}

// milpSeeds is the number of corpus batches per fleet: heteroBatch(seed,
// 4+seed) for seeds 1 to milpSeeds.
const milpSeeds = 8

// milpDigest summarizes a built model and its incumbent: the variable and
// row counts, the sha256 of the model's canonical text, and the sha256 of
// the incumbent's float bits ("none" when the warm start did not encode).
func milpDigest(t *testing.T, f *milpModel, incumbent []float64) string {
	t.Helper()
	lp := sha256.New()
	if err := f.m.WriteLP(lp); err != nil {
		t.Fatal(err)
	}
	inc := "none"
	if incumbent != nil {
		var bits []byte
		for _, v := range incumbent {
			bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
		}
		inc = fmt.Sprintf("%x", sha256.Sum256(bits))
	}
	return fmt.Sprintf("vars=%d rows=%d model=%x incumbent=%s", f.m.NumVars(), f.m.NumConstraints(), lp.Sum(nil), inc)
}

// TestMILPModelGolden pins problem (17) as built for every corpus instance,
// without solving it: the model's variables and rows, in order, and the
// incumbent the enumerative warm start encodes to. A change to the
// formulation must regenerate testdata/milp_models.golden on purpose
// (-update-milp-golden); a change that should not touch it, including any
// map-order leak into row order, fails here.
func TestMILPModelGolden(t *testing.T) {
	var got bytes.Buffer
	for _, fl := range milpCorpus(t) {
		for seed := int64(1); seed <= milpSeeds; seed++ {
			fmt.Fprintf(&got, "%s seed=%d ", fl.name, seed)
			f, _, incumbent, err := milpWarmStart(fl.pl, heteroBatch(seed, 4+int(seed)))
			switch {
			case errors.Is(err, ErrInfeasible):
				got.WriteString("overCapacity\n")
			case err != nil:
				t.Fatalf("%s seed %d: %v", fl.name, seed, err)
			default:
				fmt.Fprintln(&got, milpDigest(t, f, incumbent))
			}
		}
	}
	checkGolden(t, "milp_models.golden", got.Bytes(), *updateMILPGolden, "-update-milp-golden")
}

// checkGolden compares got with testdata/name line by line, after rewriting
// the file from got when update is set (the test flag named flagName).
func checkGolden(t *testing.T, name string, got []byte, update bool, flagName string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with %s to regenerate)", err, flagName)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return ""
	}
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if g, w := line(gl, i), line(wl, i); g != w {
			t.Errorf("%s changed (run with %s if intended):\n got %s\nwant %s", name, flagName, g, w)
		}
	}
}

// Extraction without a solve: for every corpus instance the encoded
// enumerative incumbent, read back as a plan, must be valid under the
// planner's pricing and keep enum's degree multiset — and, on placing
// planners, enum's ranges.
func TestMILPIncumbentRoundTrip(t *testing.T) {
	ranges := func(p MicroPlan) []cluster.DeviceRange {
		var rs []cluster.DeviceRange
		for _, g := range p.Groups {
			if len(g.Lens) > 0 {
				rs = append(rs, g.Range)
			}
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		return rs
	}
	checked := 0
	for _, fl := range milpCorpus(t) {
		for seed := int64(1); seed <= milpSeeds; seed++ {
			lens := heteroBatch(seed, 4+int(seed))
			f, warm, incumbent, err := milpWarmStart(fl.pl, lens)
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			if err != nil || incumbent == nil {
				t.Fatalf("%s seed %d: no incumbent (err %v)", fl.name, seed, err)
			}
			got := f.extract(incumbent)
			if err := got.Validate(fl.pl.Pricing(), lens); err != nil {
				t.Errorf("%s seed %d: extracted incumbent invalid: %v", fl.name, seed, err)
			}
			if !reflect.DeepEqual(got.Degrees(), warm.Degrees()) {
				t.Errorf("%s seed %d: degrees %v, enum %v", fl.name, seed, got.Degrees(), warm.Degrees())
			}
			if fl.pl.Places() && !reflect.DeepEqual(ranges(got), ranges(warm)) {
				t.Errorf("%s seed %d: ranges %v, enum %v", fl.name, seed, ranges(got), ranges(warm))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no corpus instance reached the model")
	}
}
