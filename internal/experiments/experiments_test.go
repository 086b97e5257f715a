package experiments

import (
	"strings"
	"testing"

	"flexsp/internal/costmodel"
)

func TestTable1Shape(t *testing.T) {
	res := Table1(Quick())
	if len(res.SeqLens) != 7 || len(res.Degrees) != 5 {
		t.Fatalf("grid = %d×%d", len(res.SeqLens), len(res.Degrees))
	}
	// OOM boundary pattern (paper Table 1): find a row's first feasible
	// degree and check it matches.
	wantMinDegree := map[int]int{
		4 << 10: 4, 8 << 10: 4, 16 << 10: 4, // all feasible in the measured range
		32 << 10: 8, 64 << 10: 16, 128 << 10: 32, 256 << 10: 64,
	}
	for i, seq := range res.SeqLens {
		for di, d := range res.Degrees {
			cell := res.Cells[i][di]
			if d >= wantMinDegree[seq] && cell.OOM {
				t.Errorf("seq %d SP=%d should fit, got OOM", seq, d)
			}
			if d < wantMinDegree[seq] && !cell.OOM {
				t.Errorf("seq %d SP=%d should OOM", seq, d)
			}
		}
	}
	// Communication share falls when moving from inter-node (SP=16) to
	// intra-node (SP=8) for short sequences (paper: 31.4% → 7.8% at 8K).
	row8K := res.Cells[1]
	if !(row8K[2].CommFrac > 2*row8K[3].CommFrac) {
		t.Errorf("8K comm share: SP=16 %.3f should dwarf SP=8 %.3f",
			row8K[2].CommFrac, row8K[3].CommFrac)
	}
	// For short sequences SP=8 beats SP=64 end to end.
	if !(row8K[3].IterTime < row8K[0].IterTime) {
		t.Errorf("8K: SP=8 (%.1fs) should beat SP=64 (%.1fs)",
			row8K[3].IterTime, row8K[0].IterTime)
	}
	if !strings.Contains(res.Render(), "OOM") {
		t.Error("render should show OOM cells")
	}
}

func TestFig2Shape(t *testing.T) {
	res := Fig2(Quick())
	if len(res.Datasets) != 3 {
		t.Fatalf("datasets = %v", res.Datasets)
	}
	// Long-tail ordering: GitHub > CommonCrawl > Wikipedia above 32K.
	if !(res.Above32K[0] > res.Above32K[1] && res.Above32K[1] > res.Above32K[2]) {
		t.Errorf("tail ordering wrong: %v", res.Above32K)
	}
	for i, f := range res.Below8K {
		if f < 0.7 {
			t.Errorf("%s: below-8K fraction %.2f too small", res.Datasets[i], f)
		}
	}
	if !strings.Contains(res.Render(), "Wikipedia") {
		t.Error("render incomplete")
	}
}

func TestFig1HeteroWins(t *testing.T) {
	res := Fig1(Quick())
	if len(res.Cases) < 3 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	if sp := res.Speedup(); sp <= 1.0 {
		t.Fatalf("hetero speedup = %.2f, want > 1", sp)
	}
	// The heterogeneous cases must cut All-to-All time vs both homo cases.
	var homoA2A, heteroA2A float64
	for _, c := range res.Cases {
		if strings.HasPrefix(c.Name, "Homo") && (homoA2A == 0 || c.AllToAll < homoA2A) {
			homoA2A = c.AllToAll
		}
		if strings.HasPrefix(c.Name, "Hetero") && (heteroA2A == 0 || c.AllToAll < heteroA2A) {
			heteroA2A = c.AllToAll
		}
	}
	if heteroA2A >= homoA2A {
		t.Fatalf("hetero All-to-All %.2fs should beat homo %.2fs", heteroA2A, homoA2A)
	}
}

func TestFig4SingleCellOrdering(t *testing.T) {
	cfg := Quick()
	res := Fig4(cfg, []costmodel.ModelConfig{costmodel.GPT7B}, []int{192 << 10})
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		flex := c.IterTime[SysFlexSP]
		if flex == 0 {
			t.Fatalf("%s: FlexSP infeasible", c.Dataset)
		}
		// FlexSP wins against every baseline (paper: consistently best).
		for _, s := range []SystemName{SysDeepSpeed, SysMegatron, SysBatchAda} {
			if b := c.IterTime[s]; b != 0 && flex > b*1.001 {
				t.Errorf("%s: FlexSP %.1fs loses to %s %.1fs", c.Dataset, flex, s, b)
			}
		}
	}
	if !strings.Contains(res.Render(), "max speedup") {
		t.Error("render incomplete")
	}
}

func TestCaseStudyShape(t *testing.T) {
	cfg := Quick()
	res := CaseStudy(cfg)
	if len(res.Cases) != 2 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	for ci, cse := range res.Cases {
		if len(cse.Systems) != 3 {
			t.Fatalf("case %d systems = %d", ci, len(cse.Systems))
		}
		// FlexSP must mix degrees somewhere (Table 3's point) and reduce
		// All-to-All vs DeepSpeed (Fig. 5a's point).
		if red := res.AllToAllReduction(ci); red <= 1 {
			t.Errorf("case %d: All-to-All reduction %.2f, want > 1", ci, red)
		}
		if len(cse.LenBySP) == 0 {
			t.Errorf("case %d: no per-degree length data", ci)
		}
	}
	// Fig. 5b: FlexSP's shortest assigned sequences should sit on lower
	// degrees than its longest ones.
	last := res.Cases[1]
	lowest, highest := 1<<30, 0
	var lowDeg, highDeg int
	for d, lens := range last.LenBySP {
		for _, l := range lens {
			if l < lowest {
				lowest, lowDeg = l, d
			}
			if l > highest {
				highest, highDeg = l, d
			}
		}
	}
	if lowDeg > highDeg {
		t.Errorf("shortest seq on SP=%d but longest on SP=%d", lowDeg, highDeg)
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Error("render incomplete")
	}
}

func TestTable4DPBeatsNaive(t *testing.T) {
	res := Table4(Quick())
	for i, name := range res.Datasets {
		// DP must beat naive decisively (paper: ≤2.3% vs up to 22%). Our
		// synthetic corpora yield slightly higher absolute DP errors than
		// the paper's; the shape claims are the large gap and the
		// single-digit DP error.
		if res.DPError[i]*2 >= res.NaiveErr[i] {
			t.Errorf("%s: DP %.4f not ≪ naive %.4f", name, res.DPError[i], res.NaiveErr[i])
		}
		if res.DPError[i] > 0.07 {
			t.Errorf("%s: DP error %.4f too large", name, res.DPError[i])
		}
	}
}

func TestFig9EstimatorAccuracy(t *testing.T) {
	res := Fig9(Quick())
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	if e := res.MaxAbsError(); e > 0.06 {
		t.Fatalf("max estimator error %.3f exceeds the paper's 6%%", e)
	}
}

func TestTable5Renders(t *testing.T) {
	s := Table5()
	for _, want := range []string{"GPT-7B", "GPT-13B", "GPT-30B", "6656"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table5 missing %q", want)
		}
	}
}

func TestDegreesString(t *testing.T) {
	if got := degreesString([]int{32, 8, 8, 8, 8}); got != "⟨32, 8×4⟩" {
		t.Fatalf("degreesString = %q", got)
	}
	if got := degreesString(nil); got != "⟨⟩" {
		t.Fatalf("degreesString(nil) = %q", got)
	}
}

func TestPipelineExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("GPT-30B joint sweep in -short mode")
	}
	res := Pipeline(Quick())
	if len(res.Cells) != 5 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.JointTime == 0 {
			t.Fatalf("joint planner infeasible on %s/%s (cap=%v)", c.Model, c.Dataset, c.HeadsCap)
		}
		// Acceptance: the joint PP×SP plan matches or beats flat FlexSP
		// wherever flat is feasible...
		if c.FlatTime > 0 && c.JointTime > c.FlatTime*1.001 {
			t.Errorf("%s cap=%v: joint %.1fs loses to flat %.1fs", c.Dataset, c.HeadsCap, c.JointTime, c.FlatTime)
		}
		// ...and stays within device memory everywhere.
		if c.PeakMemFrac > 1 {
			t.Errorf("%s cap=%v: joint plan exceeds memory (%.0f%%)", c.Dataset, c.HeadsCap, 100*c.PeakMemFrac)
		}
	}
	// The probe row is a workload flat SP cannot place but the hybrid fits.
	if res.FlatInfeasibleFitCount() < 1 {
		t.Error("no cell where the hybrid fits and flat SP does not")
	}
	if !strings.Contains(res.Render(), "Hybrid PP×SP") {
		t.Error("render incomplete")
	}
}

func TestAppendixEFlexCPBeatsStaticCP(t *testing.T) {
	res := AppendixE(Quick())
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.FlexUlysses == 0 || c.FlexRingCP == 0 || c.StaticCP == 0 {
			t.Fatalf("%s: missing variant: %+v", c.Dataset, c)
		}
		// Flexible grouping transfers to CP (Appendix E)...
		if c.FlexRingCP > c.StaticCP*1.001 {
			t.Errorf("%s: flexible CP %.1fs should not lose to static CP %.1fs",
				c.Dataset, c.FlexRingCP, c.StaticCP)
		}
		// ...and Ulysses stays at least competitive on long-tail corpora
		// (Appendix D's argument).
		if c.FlexUlysses > c.FlexRingCP*1.25 {
			t.Errorf("%s: Ulysses %.1fs unexpectedly much worse than ring CP %.1fs",
				c.Dataset, c.FlexUlysses, c.FlexRingCP)
		}
	}
	if !strings.Contains(res.Render(), "Appendix E") {
		t.Error("render incomplete")
	}
}
