package trigger

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func evalB(t *testing.T, src string, env Env) bool {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := EvalBool(n, env)
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", src, err)
	}
	return v
}

func evalN(t *testing.T, src string, env Env) float64 {
	t.Helper()
	n, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parseExpr(%q): %v", src, err)
	}
	v, err := evalNumber(n, env)
	if err != nil {
		t.Fatalf("evalNumber(%q): %v", src, err)
	}
	return v
}

// evalNumber evaluates a numeric-typed expression against env.
func evalNumber(n Node, env Env) (float64, error) {
	if n.Type() != TNumber {
		return 0, &EvalError{Msg: "expression is not numeric"}
	}
	return eval(n, env)
}

// mustParse parses a boolean trigger expression, panicking on error.
func mustParse(input string) Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

// mustCompile compiles a trigger, panicking on error.
func mustCompile(src string) Trigger {
	tr, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return tr
}

// TestPaperTrigger checks the exact trigger from the paper's Figure 3.
func TestPaperTrigger(t *testing.T) {
	if evalB(t, "(t > 1500)", MapEnv{"t": 1500}) {
		t.Fatal("t=1500 should not fire (strict >)")
	}
	if !evalB(t, "(t > 1500)", MapEnv{"t": 1501}) {
		t.Fatal("t=1501 should fire")
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":      7,
		"(1 + 2) * 3":    9,
		"10 / 4":         2.5,
		"10 % 3":         1,
		"-5 + 2":         -3,
		"--5":            5,
		"2 * -3":         -6,
		"abs(-4)":        4,
		"min(3, 1, 2)":   1,
		"max(3, 1, 2)":   3,
		"min(7)":         7,
		"1.5e2":          150,
		"abs(min(-2,5))": 2,
	}
	for src, want := range cases {
		if got := evalN(t, src, MapEnv{}); got != want {
			t.Errorf("%q = %g, want %g", src, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	env := MapEnv{"x": 5, "y": 10}
	cases := map[string]bool{
		"x < y":                            true,
		"x <= 5":                           true,
		"x > y":                            false,
		"x >= 5":                           true,
		"x == 5":                           true,
		"x != 5":                           false,
		"x = 5":                            true, // single '=' tolerated
		"x < y && y < 20":                  true,
		"x < y && y > 20":                  false,
		"x > y || y == 10":                 true,
		"!(x > y)":                         true,
		"not (x > y)":                      true,
		"x < y and y < 20":                 true,
		"x > y or y == 10":                 true,
		"true":                             true,
		"false || true":                    true,
		"(x == 5) == (y == 10)":            true,
		"(x == 5) != (y == 10)":            false,
		"x + 1 == 6 && y - 5 == x":         true,
		"min(x, y) == 5 && max(x,y) == 10": true,
	}
	for src, want := range cases {
		if got := evalB(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestEvery(t *testing.T) {
	n := mustParse("every(500)")
	for _, c := range []struct {
		t    float64
		want bool
	}{{0, false}, {250, false}, {500, true}, {750, false}, {1000, true}} {
		got, err := EvalBool(n, MapEnv{"t": c.t})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("every(500) at t=%g: got %v, want %v", c.t, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Right side references an undefined variable; short-circuit must avoid
	// evaluating it.
	if evalB(t, "false && missing > 0", MapEnv{}) {
		t.Fatal("false && _ should be false")
	}
	if !evalB(t, "true || missing > 0", MapEnv{}) {
		t.Fatal("true || _ should be true")
	}
	// Division by zero guarded by short-circuit.
	if evalB(t, "false && 1/0 > 0", MapEnv{}) {
		t.Fatal("short-circuit should skip division by zero")
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []string{"missing > 0", "1/0 > 0", "1 % 0 == 1", "every(0)"}
	for _, src := range cases {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := EvalBool(n, MapEnv{"t": 100}); err == nil {
			t.Errorf("%q should fail at eval time", src)
		}
	}
	// every() without t defined.
	n := mustParse("every(5)")
	if _, err := EvalBool(n, MapEnv{}); err == nil {
		t.Error("every without t should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",               // Parse requires non-empty (Compile handles empty)
		"1 +",            // dangling operator
		"(t > 5",         // unbalanced paren
		"t >",            // missing rhs
		"5",              // numeric, not boolean
		"t + 1",          // numeric, not boolean
		"t && 1 > 0",     // numeric operand to &&
		"!(t)",           // ! on numeric
		"-(t > 1)",       // unary minus on boolean
		"t > true",       // mixed comparison
		"frob(1) > 0",    // unknown function
		"abs() > 0",      // wrong arity
		"abs(1,2) > 0",   // wrong arity
		"abs(t > 1) > 0", // boolean arg to numeric fn
		"t > 1 extra",    // trailing tokens
		"t > 1 $",        // lex error
		"t > 1..5",       // bad number
		"min(1,) > 0",    // dangling comma
		"t < (1,2)",      // comma outside call
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCompileZeroTrigger(t *testing.T) {
	tr, err := Compile("")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsZero() {
		t.Fatal("empty source should compile to zero trigger")
	}
	fired, err := tr.Fire(99999, MapEnv{})
	if err != nil || fired {
		t.Fatalf("zero trigger fired=%v err=%v", fired, err)
	}
	if tr.String() != "<none>" {
		t.Fatalf("String = %q", tr.String())
	}
}

func TestTriggerFire(t *testing.T) {
	tr := mustCompile("t > 1500 && pending > 0")
	fired, err := tr.Fire(2000, MapEnv{"pending": 1})
	if err != nil || !fired {
		t.Fatalf("fired=%v err=%v, want true", fired, err)
	}
	fired, err = tr.Fire(2000, MapEnv{"pending": 0})
	if err != nil || fired {
		t.Fatalf("fired=%v err=%v, want false", fired, err)
	}
	fired, err = tr.Fire(1000, MapEnv{"pending": 1})
	if err != nil || fired {
		t.Fatalf("fired=%v err=%v, want false", fired, err)
	}
}

func TestTimeEnvOverridesBase(t *testing.T) {
	env := TimeEnv{T: 42, Base: MapEnv{"t": 7, "x": 1}}
	v, ok := env.Lookup("t")
	if !ok || v != 42 {
		t.Fatalf("t = %g, want 42", v)
	}
	v, ok = env.Lookup("x")
	if !ok || v != 1 {
		t.Fatalf("x = %g, want 1", v)
	}
	if _, ok := env.Lookup("nope"); ok {
		t.Fatal("nope should be undefined")
	}
	if _, ok := (TimeEnv{T: 1}).Lookup("x"); ok {
		t.Fatal("nil base should define only t")
	}
}

// genExprString builds random well-formed boolean expressions.
func genExprString(r *rand.Rand, depth int) string {
	if depth <= 0 {
		// Leaf comparison.
		vars := []string{"t", "x", "y"}
		v := vars[r.Intn(len(vars))]
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return v + " " + ops[r.Intn(len(ops))] + " " + []string{"0", "1", "10", "1500"}[r.Intn(4)]
	}
	switch r.Intn(4) {
	case 0:
		return "(" + genExprString(r, depth-1) + " && " + genExprString(r, depth-1) + ")"
	case 1:
		return "(" + genExprString(r, depth-1) + " || " + genExprString(r, depth-1) + ")"
	case 2:
		return "!(" + genExprString(r, depth-1) + ")"
	default:
		return genExprString(r, 0)
	}
}

// TestQuickStringRoundTrip: parsing the String() rendering of a parsed tree
// yields a tree that evaluates identically.
func TestQuickStringRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	env := MapEnv{"t": 1500, "x": 3, "y": -2}
	f := func() bool {
		src := genExprString(r, 3)
		n1, err := Parse(src)
		if err != nil {
			return false
		}
		n2, err := Parse(n1.String())
		if err != nil {
			return false
		}
		v1, err1 := EvalBool(n1, env)
		v2, err2 := EvalBool(n2, env)
		return err1 == nil && err2 == nil && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterministic: evaluation is pure — same env, same result.
func TestQuickDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(tv, xv, yv int16) bool {
		src := genExprString(r, 2)
		n, err := Parse(src)
		if err != nil {
			return false
		}
		env := MapEnv{"t": float64(tv), "x": float64(xv), "y": float64(yv)}
		a, err1 := EvalBool(n, env)
		b, err2 := EvalBool(n, env)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse("t > ")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error should carry position info: %v", err)
	}
}

func TestIdentifierWithDots(t *testing.T) {
	// Dotted names let views export namespaced variables (e.g. ars.pending).
	if !evalB(t, "ars.pending > 0", MapEnv{"ars.pending": 2}) {
		t.Fatal("dotted identifier lookup failed")
	}
}
