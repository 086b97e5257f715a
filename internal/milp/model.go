// Package milp is a small Mixed-Integer Linear Programming solver built for
// FlexSP's parallelism planner (paper §4.1.3), standing in for the SCIP
// library the paper links against. It provides:
//
//   - a model builder (variables with bounds and integrality, sparse linear
//     constraints, minimization objective),
//   - a bounded-variable two-phase revised simplex LP solver, and
//   - a best-first branch-and-bound MILP driver with rounding heuristics,
//     warm-started incumbents and a wall-clock budget.
//
// The solver is deliberately modest — dense basis inverse, no cut
// generation — but handles the planner's post-bucketing problem sizes
// (hundreds of variables) to optimality and scales to the paper's N=64
// formulation under a time budget.
package milp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Sense is a linear constraint relation.
type Sense int

const (
	LE Sense = iota // Σ a·x ≤ rhs
	GE              // Σ a·x ≥ rhs
	EQ              // Σ a·x = rhs
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return "?"
	}
}

// Inf is the bound value meaning "unbounded".
var Inf = math.Inf(1)

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear constraint.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	Name  string
}

// Model is a minimization MILP.
type Model struct {
	obj     []float64
	lb, ub  []float64
	integer []bool
	names   []string
	constrs []Constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// AddVar appends a variable and returns its index.
func (m *Model) AddVar(lb, ub, obj float64, integer bool, name string) int {
	if lb > ub {
		panic(fmt.Sprintf("milp: variable %q has lb %v > ub %v", name, lb, ub))
	}
	m.lb = append(m.lb, lb)
	m.ub = append(m.ub, ub)
	m.obj = append(m.obj, obj)
	m.integer = append(m.integer, integer)
	m.names = append(m.names, name)
	return len(m.lb) - 1
}

// NumVars returns the variable count.
func (m *Model) NumVars() int { return len(m.lb) }

// NumConstraints returns the constraint count.
func (m *Model) NumConstraints() int { return len(m.constrs) }

// AddConstraint appends a constraint. Terms with out-of-range variable
// indices panic.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs float64, name string) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(m.lb) {
			panic(fmt.Sprintf("milp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	m.constrs = append(m.constrs, Constraint{
		Terms: append([]Term(nil), terms...),
		Sense: sense,
		RHS:   rhs,
		Name:  name,
	})
}

// WriteLP writes the model as canonical text: the objective, every
// constraint in insertion order with its terms in insertion order, and every
// variable's bounds and integrality. Variables and constraints are named
// name_index, and numbers are written in their shortest round-trip form, so
// two models write the same bytes exactly when they are built alike.
func (m *Model) WriteLP(w io.Writer) error {
	bw := bufio.NewWriter(w)
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	bw.WriteString("minimize\n")
	for i, c := range m.obj {
		if c != 0 {
			fmt.Fprintf(bw, " %s %s_%d", num(c), m.names[i], i)
		}
	}
	bw.WriteString("\nsubject to\n")
	for j, c := range m.constrs {
		fmt.Fprintf(bw, " %s_%d:", c.Name, j)
		for _, t := range c.Terms {
			fmt.Fprintf(bw, " %s %s_%d", num(t.Coef), m.names[t.Var], t.Var)
		}
		fmt.Fprintf(bw, " %v %s\n", c.Sense, num(c.RHS))
	}
	bw.WriteString("bounds\n")
	for i := range m.lb {
		kind := ""
		if m.integer[i] {
			kind = " integer"
		}
		fmt.Fprintf(bw, " %s <= %s_%d <= %s%s\n", num(m.lb[i]), m.names[i], i, num(m.ub[i]), kind)
	}
	bw.WriteString("end\n")
	return bw.Flush()
}

// Objective evaluates the objective at x.
func (m *Model) Objective(x []float64) float64 {
	var v float64
	for i, c := range m.obj {
		v += c * x[i]
	}
	return v
}

const feasTol = 1e-6

// Feasible reports whether x satisfies all bounds, constraints and
// integrality requirements within tolerance.
func (m *Model) Feasible(x []float64) bool {
	if len(x) != len(m.lb) {
		return false
	}
	for i, v := range x {
		if v < m.lb[i]-feasTol || v > m.ub[i]+feasTol {
			return false
		}
		if m.integer[i] && math.Abs(v-math.Round(v)) > feasTol {
			return false
		}
	}
	for _, c := range m.constrs {
		var lhs float64
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		// Scale the tolerance with the row magnitude so huge-coefficient
		// rows (e.g. memory in bytes) don't fail on rounding noise.
		scale := 1.0
		for _, t := range c.Terms {
			if a := math.Abs(t.Coef); a > scale {
				scale = a
			}
		}
		tol := feasTol * scale
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Status is a solve outcome.
type Status int

const (
	// StatusOptimal means an optimal (or, with a time limit, best found
	// proven-feasible) solution was returned.
	StatusOptimal Status = iota
	// StatusFeasible means a feasible incumbent was found but optimality
	// was not proven within the budget.
	StatusFeasible
	// StatusInfeasible means no feasible point exists.
	StatusInfeasible
	// StatusUnbounded means the relaxation is unbounded below.
	StatusUnbounded
	// StatusLimit means the budget expired with no feasible point found.
	StatusLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status Status
	// X is the variable assignment (valid for StatusOptimal/StatusFeasible).
	X []float64
	// Obj is the objective at X.
	Obj float64
	// Bound is the best proven lower bound on the optimum.
	Bound float64
	// Nodes is the number of branch-and-bound nodes processed.
	Nodes int
	// LPWarm and LPCold count LP solves by kind: warm dual-simplex re-solves
	// from a parent basis versus cold two-phase solves (including the root).
	LPWarm int
	LPCold int
	// Incumbents counts accepted incumbent improvements during the search.
	Incumbents int
}
