package mc

import "fmt"

// MaxNesting is the nesting budget: how deeply statements, expressions,
// initializers and declarator types may nest. The checker and every
// later phase walk the tree recursively, so a source nested past the
// budget is rejected here, with a positioned error, instead of
// exhausting the goroutine stack (a fatal error no recover() catches).
// A parenthesis, a unary operator and each operator of a left-deep
// chain count one level, so an N-term chain is N deep. The deepest of
// the 19 workloads nests 17 levels.
const MaxNesting = 256

// Parser builds an AST from tokens.
type Parser struct {
	toks []Token
	pos  int
	nest int // nesting depth at the current token (see MaxNesting)
}

// Parse parses a complete MC translation unit.
func Parse(src string) (*Unit, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.parseUnit()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *Parser) atPunct(text string) bool   { return p.at(TokPunct, text) }
func (p *Parser) atKeyword(text string) bool { return p.at(TokKeyword, text) }

func (p *Parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(kind TokKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return t, errAt(t.Line, t.Col, "expected %q, found %s", want, t)
}

func (p *Parser) errHere(format string, args ...interface{}) error {
	t := p.cur()
	return errAt(t.Line, t.Col, format, args...)
}

// enter descends one nesting level at token t, failing past MaxNesting.
// The caller restores p.nest when it is done with the level; a failed
// parse abandons p.nest with the rest of the parser.
func (p *Parser) enter(t Token) error {
	p.nest++
	if p.nest > MaxNesting {
		return errAt(t.Line, t.Col, "nesting exceeds %d", MaxNesting)
	}
	return nil
}

// leave undoes one enter.
func (p *Parser) leave() { p.nest-- }

// pointers applies a declarator's '*' prefixes to typ. Each counts as a
// nesting level.
func (p *Parser) pointers(typ *Type) (*Type, error) {
	nest := p.nest
	for p.atPunct("*") {
		if err := p.enter(p.next()); err != nil {
			return nil, err
		}
		typ = PtrTo(typ)
	}
	p.nest = nest
	return typ, nil
}

// atTypeName reports whether the current token begins a type.
func (p *Parser) atTypeName() bool {
	return p.atKeyword("int") || p.atKeyword("char") || p.atKeyword("float") || p.atKeyword("void")
}

func (p *Parser) parseBaseType() (*Type, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errHere("expected type name, found %s", t)
	}
	p.pos++
	switch t.Text {
	case "int":
		return IntType, nil
	case "char":
		return CharType, nil
	case "float":
		return FloatType, nil
	case "void":
		return VoidType, nil
	}
	return nil, errAt(t.Line, t.Col, "expected type name, found %s", t)
}

// parseUnit = { global-var | function }*
func (p *Parser) parseUnit() (*Unit, error) {
	u := &Unit{}
	for !p.at(TokEOF, "") {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		typ, err := p.pointers(base)
		if err != nil {
			return nil, err
		}
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			fn, err := p.parseFuncRest(typ, nameTok)
			if err != nil {
				return nil, err
			}
			u.Funcs = append(u.Funcs, fn)
			continue
		}
		decls, err := p.parseVarDeclRest(base, typ, nameTok)
		if err != nil {
			return nil, err
		}
		u.Globals = append(u.Globals, decls...)
	}
	return u, nil
}

// parseVarDeclRest parses the remainder of a variable declaration whose
// first declarator's pointer-decorated type and name were already consumed.
// base is the undeclared base type for subsequent comma declarators.
func (p *Parser) parseVarDeclRest(base, typ *Type, nameTok Token) ([]*VarDecl, error) {
	var out []*VarDecl
	for {
		full, err := p.parseArraySuffix(typ)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{pos: pos{nameTok.Line, nameTok.Col}, Name: nameTok.Text, Type: full}
		if p.accept(TokPunct, "=") {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		out = append(out, d)
		if p.accept(TokPunct, ",") {
			typ, err = p.pointers(base)
			if err != nil {
				return nil, err
			}
			nameTok, err = p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			continue
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func (p *Parser) parseArraySuffix(typ *Type) (*Type, error) {
	var dims []int
	nest := p.nest
	for p.atPunct("[") {
		if err := p.enter(p.next()); err != nil {
			return nil, err
		}
		t, err := p.expect(TokInt, "")
		if err != nil {
			return nil, err
		}
		if t.Int <= 0 {
			return nil, errAt(t.Line, t.Col, "array size must be positive")
		}
		dims = append(dims, int(t.Int))
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return nil, err
		}
	}
	p.nest = nest
	for i := len(dims) - 1; i >= 0; i-- {
		typ = ArrayOf(typ, dims[i])
	}
	return typ, nil
}

func (p *Parser) parseInitializer() (*Initializer, error) {
	t := p.cur()
	if err := p.enter(t); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.accept(TokPunct, "{") {
		init := &Initializer{pos: pos{t.Line, t.Col}}
		for !p.atPunct("}") {
			sub, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			init.List = append(init.List, sub)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return init, nil
	}
	e, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	return &Initializer{pos: pos{t.Line, t.Col}, Expr: e}, nil
}

func (p *Parser) parseFuncRest(ret *Type, nameTok Token) (*FuncDecl, error) {
	fn := &FuncDecl{pos: pos{nameTok.Line, nameTok.Col}, Name: nameTok.Text, Ret: ret}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		if p.atKeyword("void") && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ")" {
			p.next()
		} else {
			for {
				base, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				typ, err := p.pointers(base)
				if err != nil {
					return nil, err
				}
				pt, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				// T name[] means pointer parameter.
				nest := p.nest
				for p.atPunct("[") {
					if err := p.enter(p.next()); err != nil {
						return nil, err
					}
					if p.cur().Kind == TokInt {
						p.next() // size ignored for params
					}
					if _, err := p.expect(TokPunct, "]"); err != nil {
						return nil, err
					}
					typ = PtrTo(typ)
				}
				p.nest = nest
				fn.Params = append(fn.Params, &Param{pos: pos{pt.Line, pt.Col}, Name: pt.Text, Type: typ})
				if !p.accept(TokPunct, ",") {
					break
				}
			}
		}
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	t, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := &Block{pos: pos{t.Line, t.Col}}
	for !p.atPunct("}") {
		if p.at(TokEOF, "") {
			return nil, p.errHere("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	if err := p.enter(t); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.atPunct("{"):
		return p.parseBlock()
	case p.atPunct(";"):
		p.next()
		return &Empty{pos{t.Line, t.Col}}, nil
	case p.atTypeName():
		return p.parseLocalDecl()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("while"):
		return p.parseWhile()
	case p.atKeyword("do"):
		return p.parseDoWhile()
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("switch"):
		return p.parseSwitch()
	case p.atKeyword("break"):
		p.next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{pos{t.Line, t.Col}}, nil
	case p.atKeyword("continue"):
		p.next()
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{pos{t.Line, t.Col}}, nil
	case p.atKeyword("return"):
		p.next()
		r := &Return{pos: pos{t.Line, t.Col}}
		if !p.atPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = e
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return r, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return &ExprStmt{pos{t.Line, t.Col}, e}, nil
}

func (p *Parser) parseLocalDecl() (Stmt, error) {
	t := p.cur()
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	typ, err := p.pointers(base)
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	decls, err := p.parseVarDeclRest(base, typ, nameTok)
	if err != nil {
		return nil, err
	}
	return &DeclStmt{pos{t.Line, t.Col}, decls}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s := &If{pos: pos{t.Line, t.Col}, Cond: cond, Then: then}
	if p.accept(TokKeyword, "else") {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &While{pos{t.Line, t.Col}, cond, body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	t := p.next() // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "while"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return &DoWhile{pos{t.Line, t.Col}, body, cond}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	s := &For{pos: pos{t.Line, t.Col}}
	if !p.atPunct(";") {
		if p.atTypeName() {
			init, err := p.parseLocalDecl()
			if err != nil {
				return nil, err
			}
			s.Init = init
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Init = &ExprStmt{pos{t.Line, t.Col}, e}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.atPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	t := p.next() // switch
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	s := &Switch{pos: pos{t.Line, t.Col}, X: x}
	for !p.atPunct("}") {
		ct := p.cur()
		var c *Case
		if p.accept(TokKeyword, "case") {
			c = &Case{pos: pos{ct.Line, ct.Col}}
			neg := p.accept(TokPunct, "-")
			vt := p.cur()
			if vt.Kind != TokInt && vt.Kind != TokChar {
				return nil, p.errHere("case label must be an integer constant")
			}
			p.next()
			c.Value = vt.Int
			if neg {
				c.Value = -c.Value
			}
		} else if p.accept(TokKeyword, "default") {
			c = &Case{pos: pos{ct.Line, ct.Col}, IsDefault: true}
		} else {
			return nil, p.errHere("expected case or default in switch")
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		for !p.atKeyword("case") && !p.atKeyword("default") && !p.atPunct("}") {
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, st)
		}
		s.Cases = append(s.Cases, c)
	}
	p.next() // }
	return s, nil
}

// ---- Expressions (precedence climbing) ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssign() (Expr, error) {
	if err := p.enter(p.cur()); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.next()
		r, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if p.accept(TokPunct, "?") {
		tv, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		if err := p.enter(t); err != nil {
			return nil, err
		}
		fv, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		p.leave()
		return &CondExpr{exprBase: exprBase{pos: pos{t.Line, t.Col}}, C: c, T: tv, F: fv}, nil
	}
	return c, nil
}

// binary operator precedence levels, lowest first.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	// Each operator wraps everything parsed so far one level deeper.
	nest := p.nest
	for {
		t := p.cur()
		matched := false
		if t.Kind == TokPunct {
			for _, op := range binLevels[level] {
				if t.Text == op {
					matched = true
					break
				}
			}
		}
		if !matched {
			p.nest = nest
			return l, nil
		}
		if err := p.enter(p.next()); err != nil {
			return nil, err
		}
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Op: t.Text, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "~", "-", "+", "*", "&", "++", "--":
			if err := p.enter(p.next()); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			p.leave()
			if t.Text == "+" {
				return x, nil
			}
			return &Unary{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Op: t.Text, X: x}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.toks[p.pos+1].Kind == TokKeyword && keywordIsType(p.toks[p.pos+1].Text) {
				p.next() // (
				base, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				typ, err := p.pointers(base)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				if err := p.enter(t); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				p.leave()
				return &Cast{exprBase: exprBase{pos: pos{t.Line, t.Col}}, To: typ, X: x}, nil
			}
		}
	}
	return p.parsePostfix()
}

func keywordIsType(s string) bool {
	return s == "int" || s == "char" || s == "float" || s == "void"
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	// Each postfix operator wraps x one level deeper.
	nest := p.nest
	for {
		t := p.cur()
		if p.atPunct("[") || p.atPunct("(") || p.atPunct("++") || p.atPunct("--") {
			if err := p.enter(t); err != nil {
				return nil, err
			}
		}
		switch {
		case p.accept(TokPunct, "["):
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{pos: pos{t.Line, t.Col}}, X: x, I: i}
		case p.accept(TokPunct, "("):
			call := &Call{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Fun: x}
			for !p.atPunct(")") {
				a, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			x = call
		case p.atPunct("++") || p.atPunct("--"):
			p.next()
			x = &Postfix{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Op: t.Text, X: x}
		default:
			p.nest = nest
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		return &IntLit{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Value: t.Int}, nil
	case TokChar:
		p.next()
		return &IntLit{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Value: t.Int}, nil
	case TokFloat:
		p.next()
		return &FloatLit{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Value: t.Flt}, nil
	case TokString:
		p.next()
		return &StrLit{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Value: t.Str}, nil
	case TokIdent:
		p.next()
		return &Ident{exprBase: exprBase{pos: pos{t.Line, t.Col}}, Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errHere("expected expression, found %s", t)
}
