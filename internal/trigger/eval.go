package trigger

import (
	"fmt"
	"math"
)

// Env supplies variable values during evaluation. The time variable "t" is
// resolved through Env like any other variable; the cache manager installs
// the current virtual time under that name before each evaluation.
type Env interface {
	// Lookup returns the numeric value of the named variable and whether it
	// is defined.
	Lookup(name string) (float64, bool)
}

// MapEnv is an Env backed by a plain map.
type MapEnv map[string]float64

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (float64, bool) {
	v, ok := m[name]
	return v, ok
}

// TimeEnv wraps an Env, overriding the "t" variable with a fixed time
// value. It lets callers evaluate the same view-variable source at
// different virtual times without mutating shared state.
type TimeEnv struct {
	T    float64
	Base Env
}

// Lookup implements Env.
func (e TimeEnv) Lookup(name string) (float64, bool) {
	if name == "t" {
		return e.T, true
	}
	if e.Base == nil {
		return 0, false
	}
	return e.Base.Lookup(name)
}

// EvalError reports a runtime evaluation failure (undefined variable,
// division by zero).
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "trigger: eval error: " + e.Msg }

// EvalBool evaluates a boolean-typed expression against env.
func EvalBool(n Node, env Env) (bool, error) {
	if n.Type() != TBool {
		return false, &EvalError{Msg: "expression is not boolean"}
	}
	v, err := eval(n, env)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// eval computes the expression value; booleans are represented as 0/1.
func eval(n Node, env Env) (float64, error) {
	switch n := n.(type) {
	case *NumberLit:
		return n.Value, nil
	case *BoolLit:
		if n.Value {
			return 1, nil
		}
		return 0, nil
	case *Var:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return 0, &EvalError{Msg: fmt.Sprintf("undefined variable %q", n.Name)}
		}
		return v, nil
	case *Unary:
		x, err := eval(n.X, env)
		if err != nil {
			return 0, err
		}
		if n.Op == "!" {
			if x != 0 {
				return 0, nil
			}
			return 1, nil
		}
		return -x, nil
	case *Binary:
		return evalBinary(n, env)
	case *Call:
		return evalCall(n, env)
	default:
		return 0, &EvalError{Msg: fmt.Sprintf("unknown node type %T", n)}
	}
}

func evalBinary(n *Binary, env Env) (float64, error) {
	// Short-circuit logic operators.
	switch n.Op {
	case "&&":
		l, err := eval(n.L, env)
		if err != nil {
			return 0, err
		}
		if l == 0 {
			return 0, nil
		}
		return eval(n.R, env)
	case "||":
		l, err := eval(n.L, env)
		if err != nil {
			return 0, err
		}
		if l != 0 {
			return 1, nil
		}
		r, err := eval(n.R, env)
		if err != nil {
			return 0, err
		}
		if r != 0 {
			return 1, nil
		}
		return 0, nil
	}
	l, err := eval(n.L, env)
	if err != nil {
		return 0, err
	}
	r, err := eval(n.R, env)
	if err != nil {
		return 0, err
	}
	switch n.Op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, &EvalError{Msg: "division by zero"}
		}
		return l / r, nil
	case "%":
		if r == 0 {
			return 0, &EvalError{Msg: "modulo by zero"}
		}
		return math.Mod(l, r), nil
	case "<":
		return b2f(l < r), nil
	case "<=":
		return b2f(l <= r), nil
	case ">":
		return b2f(l > r), nil
	case ">=":
		return b2f(l >= r), nil
	case "==":
		return b2f(l == r), nil
	case "!=":
		return b2f(l != r), nil
	default:
		return 0, &EvalError{Msg: fmt.Sprintf("unknown operator %q", n.Op)}
	}
}

func evalCall(n *Call, env Env) (float64, error) {
	args := make([]float64, len(n.Args))
	for i, a := range n.Args {
		v, err := eval(a, env)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	switch n.Fn {
	case "abs":
		return math.Abs(args[0]), nil
	case "min":
		m := args[0]
		for _, v := range args[1:] {
			m = math.Min(m, v)
		}
		return m, nil
	case "max":
		m := args[0]
		for _, v := range args[1:] {
			m = math.Max(m, v)
		}
		return m, nil
	case "every":
		// every(p) is true at non-zero multiples of period p; it drives the
		// periodic pull triggers in the Figure 6 experiment.
		p := args[0]
		if p <= 0 {
			return 0, &EvalError{Msg: "every() requires a positive period"}
		}
		t, ok := env.Lookup("t")
		if !ok {
			return 0, &EvalError{Msg: "every() requires time variable t"}
		}
		return b2f(t > 0 && math.Mod(t, p) == 0), nil
	default:
		return 0, &EvalError{Msg: fmt.Sprintf("unknown function %q", n.Fn)}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Trigger is a compiled quality trigger, ready for repeated evaluation.
// The zero value is an always-false trigger (no synchronization delegated
// to the system).
type Trigger struct {
	src  string
	node Node
}

// Compile parses src into a Trigger. An empty src yields the always-false
// trigger (views that give no trigger synchronize only via explicit calls).
func Compile(src string) (Trigger, error) {
	if src == "" {
		return Trigger{}, nil
	}
	n, err := Parse(src)
	if err != nil {
		return Trigger{}, err
	}
	return Trigger{src: src, node: n}, nil
}

// IsZero reports whether the trigger is the always-false zero trigger.
func (tr Trigger) IsZero() bool { return tr.node == nil }

// Source returns the original expression text.
func (tr Trigger) Source() string { return tr.src }

// Fire evaluates the trigger at virtual time t against the view variables
// in base. Evaluation errors (e.g. a variable the view stopped exporting)
// are reported as non-firing along with the error so the runtime can log
// them without stopping the protocol.
func (tr Trigger) Fire(t float64, base Env) (bool, error) {
	if tr.node == nil {
		return false, nil
	}
	return EvalBool(tr.node, TimeEnv{T: t, Base: base})
}

// String renders the trigger source, or "<none>" for the zero trigger.
func (tr Trigger) String() string {
	if tr.node == nil {
		return "<none>"
	}
	return tr.src
}
