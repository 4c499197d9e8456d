package trigger

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is the static type of an expression node: number or boolean.
type Type uint8

const (
	// TNumber is a float64-valued expression.
	TNumber Type = iota
	// TBool is a boolean-valued expression.
	TBool
)

func (t Type) String() string {
	if t == TBool {
		return "bool"
	}
	return "number"
}

// Node is a typed expression-tree node. Nodes are immutable after parsing.
type Node interface {
	// Type returns the node's static type, established at parse time.
	Type() Type
	// String renders the node in source syntax (re-parseable).
	String() string
}

// NumberLit is a numeric literal.
type NumberLit struct{ Value float64 }

// BoolLit is `true` or `false`.
type BoolLit struct{ Value bool }

// Var references a variable by name; "t" is the virtual time variable.
type Var struct{ Name string }

// Unary is negation: "-x" (numeric) or "!x" (boolean).
type Unary struct {
	Op string // "-" or "!"
	X  Node
}

// Binary is an infix operation. Arithmetic ops ("+","-","*","/","%") have
// numeric operands and a numeric result; comparisons ("<","<=",">",">=",
// "==","!=") have numeric operands and boolean result; logic ops ("&&","||")
// have boolean operands and boolean result.
type Binary struct {
	Op   string
	L, R Node
}

// Call is a built-in function application.
type Call struct {
	Fn   string
	Args []Node
}

func (n *NumberLit) Type() Type { return TNumber }
func (n *BoolLit) Type() Type   { return TBool }
func (n *Var) Type() Type       { return TNumber } // variables are numeric
func (n *Unary) Type() Type {
	if n.Op == "!" {
		return TBool
	}
	return TNumber
}

func (n *Binary) Type() Type {
	switch n.Op {
	case "+", "-", "*", "/", "%":
		return TNumber
	default:
		return TBool
	}
}

func (n *Call) Type() Type {
	if n.Fn == "every" {
		return TBool
	}
	return TNumber
}

func (n *NumberLit) String() string {
	return strconv.FormatFloat(n.Value, 'g', -1, 64)
}
func (n *BoolLit) String() string { return strconv.FormatBool(n.Value) }
func (n *Var) String() string     { return n.Name }
func (n *Unary) String() string   { return n.Op + paren(n.X) }
func (n *Binary) String() string {
	return paren(n.L) + " " + n.Op + " " + paren(n.R)
}
func (n *Call) String() string {
	args := make([]string, len(n.Args))
	for i, a := range n.Args {
		args[i] = a.String()
	}
	return n.Fn + "(" + strings.Join(args, ", ") + ")"
}

func paren(n Node) string {
	switch n.(type) {
	case *NumberLit, *BoolLit, *Var, *Call:
		return n.String()
	default:
		return "(" + n.String() + ")"
	}
}

// ParseError is a syntax or type error with position information.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trigger: parse error at offset %d: %s", e.Pos, e.Msg)
}
