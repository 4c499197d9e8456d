package trigger

import "fmt"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(pos int, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Parse compiles a trigger expression into a typed AST. The expression must
// be boolean-typed overall (it answers "should we synchronize now?").
func Parse(input string) (Node, error) {
	n, err := parseExpr(input)
	if err != nil {
		return nil, err
	}
	if n.Type() != TBool {
		return nil, &ParseError{Pos: 0, Msg: fmt.Sprintf("trigger must be boolean, got a %s expression", n.Type())}
	}
	return n, nil
}

// parseExpr parses input as an expression of either type.
func parseExpr(input string) (Node, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errf(t.pos, "unexpected %s after expression", t)
	}
	return n, nil
}

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if !(t.kind == tokOp && t.text == "||" || t.kind == tokIdent && t.text == "or") {
			return l, nil
		}
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		if l.Type() != TBool || r.Type() != TBool {
			return nil, p.errf(t.pos, "|| requires boolean operands")
		}
		l = &Binary{Op: "||", L: l, R: r}
	}
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if !(t.kind == tokOp && t.text == "&&" || t.kind == tokIdent && t.text == "and") {
			return l, nil
		}
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if l.Type() != TBool || r.Type() != TBool {
			return nil, p.errf(t.pos, "&& requires boolean operands")
		}
		l = &Binary{Op: "&&", L: l, R: r}
	}
}

func (p *parser) parseNot() (Node, error) {
	t := p.peek()
	if t.kind == tokOp && t.text == "!" || t.kind == tokIdent && t.text == "not" {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if x.Type() != TBool {
			return nil, p.errf(t.pos, "! requires a boolean operand")
		}
		return &Unary{Op: "!", X: x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokOp {
		return l, nil
	}
	op := t.text
	switch op {
	case "<", "<=", ">", ">=", "==", "!=", "=":
		p.next()
		if op == "=" {
			op = "==" // tolerate single '=' as equality, common in specs
		}
		r, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		// == and != also compare booleans; the relational ops are numeric.
		if op == "==" || op == "!=" {
			if l.Type() != r.Type() {
				return nil, p.errf(t.pos, "%s requires operands of the same type", op)
			}
		} else if l.Type() != TNumber || r.Type() != TNumber {
			return nil, p.errf(t.pos, "%s requires numeric operands", op)
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseSum() (Node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if l.Type() != TNumber || r.Type() != TNumber {
			return nil, p.errf(t.pos, "%s requires numeric operands", t.text)
		}
		l = &Binary{Op: t.text, L: l, R: r}
	}
}

func (p *parser) parseTerm() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if l.Type() != TNumber || r.Type() != TNumber {
			return nil, p.errf(t.pos, "%s requires numeric operands", t.text)
		}
		l = &Binary{Op: t.text, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Node, error) {
	t := p.peek()
	if t.kind == tokOp && t.text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if x.Type() != TNumber {
			return nil, p.errf(t.pos, "unary - requires a numeric operand")
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		return &NumberLit{Value: t.num}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return &BoolLit{Value: true}, nil
		case "false":
			return &BoolLit{Value: false}, nil
		}
		if p.peek().kind == tokLParen {
			return p.parseCall(t)
		}
		return &Var{Name: t.text}, nil
	case tokLParen:
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if tt := p.next(); tt.kind != tokRParen {
			return nil, p.errf(tt.pos, "expected ')', got %s", tt)
		}
		return n, nil
	default:
		return nil, p.errf(t.pos, "expected expression, got %s", t)
	}
}

// funcArity maps built-in names to (min,max) argument counts; max = -1
// means variadic.
var funcArity = map[string][2]int{
	"abs":   {1, 1},
	"min":   {1, -1},
	"max":   {1, -1},
	"every": {1, 1},
}

func (p *parser) parseCall(name token) (Node, error) {
	arity, ok := funcArity[name.text]
	if !ok {
		return nil, p.errf(name.pos, "unknown function %q", name.text)
	}
	p.next() // consume '('
	var args []Node
	if p.peek().kind != tokRParen {
		for {
			a, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if a.Type() != TNumber {
				return nil, p.errf(name.pos, "%s arguments must be numeric", name.text)
			}
			args = append(args, a)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if tt := p.next(); tt.kind != tokRParen {
		return nil, p.errf(tt.pos, "expected ')' in call to %s, got %s", name.text, tt)
	}
	if len(args) < arity[0] || (arity[1] >= 0 && len(args) > arity[1]) {
		return nil, p.errf(name.pos, "%s: wrong number of arguments (%d)", name.text, len(args))
	}
	return &Call{Fn: name.text, Args: args}, nil
}
