package milp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

func TestLPSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → x=4, y=0, obj 12.
	m := NewModel()
	x := m.AddVar(0, Inf, -3, false, "x")
	y := m.AddVar(0, Inf, -2, false, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4, "c1")
	m.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 6, "c2")
	sol := Solve(m, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Obj, -12) || !almostEq(sol.X[x], 4) {
		t.Fatalf("obj=%v x=%v y=%v", sol.Obj, sol.X[x], sol.X[y])
	}
}

func TestLPEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 10, x ≥ 3, y ≥ 2 → obj 10.
	m := NewModel()
	x := m.AddVar(3, Inf, 1, false, "x")
	y := m.AddVar(2, Inf, 1, false, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10, "sum")
	sol := Solve(m, Options{})
	if sol.Status != StatusOptimal || !almostEq(sol.Obj, 10) {
		t.Fatalf("sol = %+v", sol)
	}
	// min 2x + y s.t. x + y ≥ 5, 0 ≤ x,y ≤ 4 → y=4, x=1, obj 6.
	m2 := NewModel()
	a := m2.AddVar(0, 4, 2, false, "a")
	b := m2.AddVar(0, 4, 1, false, "b")
	m2.AddConstraint([]Term{{a, 1}, {b, 1}}, GE, 5, "ge")
	sol2 := Solve(m2, Options{})
	if sol2.Status != StatusOptimal || !almostEq(sol2.Obj, 6) {
		t.Fatalf("sol2 = %+v", sol2)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 1, 1, false, "x")
	m.AddConstraint([]Term{{x, 1}}, GE, 2, "impossible")
	if sol := Solve(m, Options{}); sol.Status != StatusInfeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, Inf, -1, false, "x")
	m.AddConstraint([]Term{{x, -1}}, LE, 0, "loose")
	if sol := Solve(m, Options{}); sol.Status != StatusUnbounded {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestKnapsackMILP(t *testing.T) {
	// max Σ v_i x_i s.t. Σ w_i x_i ≤ 10, x binary.
	values := []float64{10, 13, 7, 8, 4}
	weights := []float64{5, 6, 3, 4, 2}
	m := NewModel()
	var terms []Term
	for i := range values {
		v := m.AddVar(0, 1, -values[i], true, "x")
		terms = append(terms, Term{v, weights[i]})
	}
	m.AddConstraint(terms, LE, 10, "cap")
	sol := Solve(m, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Brute force optimum: x1+x3 (13+8=21, w=10) → obj -21.
	if !almostEq(sol.Obj, -21) {
		t.Fatalf("obj = %v, want -21 (x=%v)", sol.Obj, sol.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. 2x ≤ 7, x integer → x=3.
	m := NewModel()
	x := m.AddVar(0, Inf, -1, true, "x")
	m.AddConstraint([]Term{{x, 2}}, LE, 7, "c")
	sol := Solve(m, Options{})
	if sol.Status != StatusOptimal || !almostEq(sol.X[x], 3) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestAssignmentMILP(t *testing.T) {
	// 3×3 assignment problem with known optimum.
	cost := [3][3]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	m := NewModel()
	var v [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v[i][j] = m.AddVar(0, 1, cost[i][j], true, "x")
		}
	}
	for i := 0; i < 3; i++ {
		var row, col []Term
		for j := 0; j < 3; j++ {
			row = append(row, Term{v[i][j], 1})
			col = append(col, Term{v[j][i], 1})
		}
		m.AddConstraint(row, EQ, 1, "row")
		m.AddConstraint(col, EQ, 1, "col")
	}
	sol := Solve(m, Options{})
	if sol.Status != StatusOptimal || !almostEq(sol.Obj, 5) {
		t.Fatalf("sol = %+v, want obj 5", sol)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y s.t. y ≥ 1.5 x, y ≥ 3 − x, x ∈ {0,1,2}, y continuous.
	// x=1 → y = max(1.5, 2) = 2; x=2 → y = 3; x=0 → y=3. Optimum 2.
	m := NewModel()
	x := m.AddVar(0, 2, 0, true, "x")
	y := m.AddVar(0, Inf, 1, false, "y")
	m.AddConstraint([]Term{{y, 1}, {x, -1.5}}, GE, 0, "c1")
	m.AddConstraint([]Term{{y, 1}, {x, 1}}, GE, 3, "c2")
	sol := Solve(m, Options{})
	if sol.Status != StatusOptimal || !almostEq(sol.Obj, 2) {
		t.Fatalf("sol = %+v, want obj 2", sol)
	}
}

func TestWarmIncumbent(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, -1, true, "x")
	m.AddConstraint([]Term{{x, 1}}, LE, 7.3, "c")
	sol := Solve(m, Options{Incumbent: []float64{5}})
	if sol.Status != StatusOptimal || !almostEq(sol.X[x], 7) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 10, -1, true, "x")
	m.AddConstraint([]Term{{x, 1}}, LE, 7.5, "c")
	sol := Solve(m, Options{Incumbent: []float64{3}, TimeLimit: time.Nanosecond})
	if sol.Status != StatusOptimal && sol.Status != StatusFeasible {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Obj > -3 {
		t.Fatalf("obj = %v, should be at least as good as warm start", sol.Obj)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 3 has a fractional LP solution but no integer one.
	m := NewModel()
	x := m.AddVar(0, 5, 0, true, "x")
	m.AddConstraint([]Term{{x, 2}}, EQ, 3, "c")
	sol := Solve(m, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestFeasibleChecker(t *testing.T) {
	m := NewModel()
	x := m.AddVar(0, 1, 0, true, "x")
	m.AddConstraint([]Term{{x, 1}}, LE, 1, "c")
	if !m.Feasible([]float64{1}) {
		t.Error("x=1 should be feasible")
	}
	if m.Feasible([]float64{0.5}) {
		t.Error("fractional x should violate integrality")
	}
	if m.Feasible([]float64{2}) {
		t.Error("x=2 violates bounds")
	}
	if m.Feasible([]float64{1, 1}) {
		t.Error("wrong dimension accepted")
	}
}

// Randomized cross-check: small random binary MILPs vs exhaustive
// enumeration.
func TestRandomBinaryMILPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		m := NewModel()
		obj := make([]float64, n)
		for i := 0; i < n; i++ {
			obj[i] = float64(rng.Intn(21) - 10)
			m.AddVar(0, 1, obj[i], true, "x")
		}
		nc := 1 + rng.Intn(3)
		type row struct {
			coefs []float64
			rhs   float64
		}
		rows := make([]row, nc)
		for c := 0; c < nc; c++ {
			coefs := make([]float64, n)
			var terms []Term
			for i := 0; i < n; i++ {
				coefs[i] = float64(rng.Intn(11) - 3)
				terms = append(terms, Term{i, coefs[i]})
			}
			rhs := float64(rng.Intn(10))
			rows[c] = row{coefs, rhs}
			m.AddConstraint(terms, LE, rhs, "c")
		}
		// Brute force.
		bestObj := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, r := range rows {
				var lhs float64
				for i := 0; i < n; i++ {
					if mask>>i&1 == 1 {
						lhs += r.coefs[i]
					}
				}
				if lhs > r.rhs {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var o float64
			for i := 0; i < n; i++ {
				if mask>>i&1 == 1 {
					o += obj[i]
				}
			}
			if o < bestObj {
				bestObj = o
			}
		}
		sol := Solve(m, Options{})
		if math.IsInf(bestObj, 1) {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %+v", trial, sol)
			}
			continue
		}
		if sol.Status != StatusOptimal || !almostEq(sol.Obj, bestObj) {
			t.Fatalf("trial %d: got %v (%v), brute force %v", trial, sol.Obj, sol.Status, bestObj)
		}
	}
}

func TestSenseAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" || Sense(9).String() != "?" {
		t.Error("Sense.String mismatch")
	}
	for s, want := range map[Status]string{
		StatusOptimal: "optimal", StatusFeasible: "feasible",
		StatusInfeasible: "infeasible", StatusUnbounded: "unbounded", StatusLimit: "limit",
	} {
		if s.String() != want {
			t.Errorf("Status %d = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestAddVarPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewModel().AddVar(2, 1, 0, false, "bad")
}

func TestAddConstraintPanicsOnUnknownVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewModel().AddConstraint([]Term{{0, 1}}, LE, 1, "bad")
}

// Randomized general-integer MILPs cross-checked against bounded brute
// force: variables in {0..3}, LE constraints.
func TestRandomIntegerMILPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(3)
		m := NewModel()
		obj := make([]float64, n)
		for i := 0; i < n; i++ {
			obj[i] = float64(rng.Intn(15) - 7)
			m.AddVar(0, 3, obj[i], true, "x")
		}
		type row struct {
			coefs []float64
			rhs   float64
		}
		rows := make([]row, 1+rng.Intn(2))
		for c := range rows {
			coefs := make([]float64, n)
			var terms []Term
			for i := 0; i < n; i++ {
				coefs[i] = float64(rng.Intn(7) - 2)
				terms = append(terms, Term{i, coefs[i]})
			}
			rhs := float64(rng.Intn(12))
			rows[c] = row{coefs, rhs}
			m.AddConstraint(terms, LE, rhs, "c")
		}
		// Brute force over {0..3}^n.
		best := math.Inf(1)
		assign := make([]int, n)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				for _, r := range rows {
					var lhs float64
					for j, v := range assign {
						lhs += r.coefs[j] * float64(v)
					}
					if lhs > r.rhs {
						return
					}
				}
				var o float64
				for j, v := range assign {
					o += obj[j] * float64(v)
				}
				if o < best {
					best = o
				}
				return
			}
			for v := 0; v <= 3; v++ {
				assign[i] = v
				rec(i + 1)
			}
		}
		rec(0)
		sol := Solve(m, Options{})
		if math.IsInf(best, 1) {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %+v", trial, sol)
			}
			continue
		}
		if sol.Status != StatusOptimal || !almostEq(sol.Obj, best) {
			t.Fatalf("trial %d: solver %v (%v) vs brute force %v", trial, sol.Obj, sol.Status, best)
		}
	}
}

// WriteLP is the canonical text the planner's model golden hashes: terms in
// insertion order, shortest round-trip floats, integrality on the bounds.
func TestWriteLP(t *testing.T) {
	m := NewModel()
	c := m.AddVar(0, Inf, 1, false, "C")
	a := m.AddVar(0, 3, 0, true, "A")
	m.AddConstraint([]Term{{c, -1}, {a, 0.1}}, LE, 0, "time")
	m.AddConstraint([]Term{{a, 1}}, EQ, 2, "assign")
	var b strings.Builder
	if err := m.WriteLP(&b); err != nil {
		t.Fatal(err)
	}
	want := "minimize\n 1 C_0\nsubject to\n time_0: -1 C_0 0.1 A_1 <= 0\n assign_1: 1 A_1 == 2\n" +
		"bounds\n 0 <= C_0 <= +Inf\n 0 <= A_1 <= 3 integer\nend\n"
	if b.String() != want {
		t.Fatalf("WriteLP:\n%s\nwant:\n%s", b.String(), want)
	}
}
