package verilog

import (
	"fmt"
)

// Parser is a recursive-descent parser for the supported Verilog subset.
// It is LL(1): it holds the current token and pulls the next from the
// lexer, so its memory grows with the source's nesting, not its length.
type Parser struct {
	lx     *Lexer
	tok    Token
	lexErr error // the first lexical error; the token stream ends there
	depth  int   // nesting levels entered, bounded by MaxNesting
}

// MaxNesting bounds how deeply a source may nest statements and
// expressions, and how deeply elaboration may nest the expressions it
// builds from them. Both recurse once per level, and a stack overflow is
// fatal in Go, so a source past the bound is refused with an error. It
// admits every suite design and a 4,096-arm case statement, whose arms
// elaboration nests one level each.
const MaxNesting = 10000

// ParseError is a syntax error with source position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("verilog: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse lexes and parses a complete source file. A lexical error ends the
// token stream where it occurs, and is returned in place of any parse
// error that follows it.
func Parse(src string) (*Source, error) {
	p := &Parser{lx: NewLexer(src)}
	p.advance()
	out := &Source{}
	for p.cur().Kind != TokEOF {
		m, err := p.parseModule()
		if err != nil {
			if p.lexErr != nil {
				return nil, p.lexErr
			}
			return nil, err
		}
		out.Modules = append(out.Modules, m)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if len(out.Modules) == 0 {
		return nil, fmt.Errorf("verilog: no modules found")
	}
	return out, nil
}

// advance pulls the next token from the lexer. After a lexical error the
// current token stays an EOF.
func (p *Parser) advance() {
	if p.lexErr != nil {
		return
	}
	t, err := p.lx.Next()
	if err != nil {
		p.lexErr = err
		t = Token{Kind: TokEOF}
	}
	p.tok = t
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) peekKind(k TokenKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) parseModule() (*Module, error) {
	if _, err := p.expect(TokModule); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	m := &Module{Name: nameTok.Text}

	// Optional #(parameter ...) header.
	if p.accept(TokHash) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if err := p.parseList(func() error {
			p.accept(TokParameter)
			return p.parseParam(m, false)
		}); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}

	// Port list: either simple names or ANSI-style declarations of one name
	// each.
	if p.accept(TokLParen) {
		if !p.peekKind(TokRParen) {
			if err := p.parseList(func() error {
				switch p.cur().Kind {
				case TokInput, TokOutput, TokInout:
					d, err := p.parsePortHead()
					if err != nil {
						return err
					}
					nt, err := p.expect(TokIdent)
					if err != nil {
						return err
					}
					d.Names = []string{nt.Text}
					m.Decls = append(m.Decls, d)
				case TokIdent:
					p.next()
				default:
					return p.errf("expected port name or direction, found %s", p.cur())
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}

	// Module items.
	for {
		switch p.cur().Kind {
		case TokEndModule:
			p.next()
			return m, nil
		case TokEOF:
			return nil, p.errf("unexpected EOF inside module %s", m.Name)
		case TokInput, TokOutput, TokInout:
			d, err := p.parsePortHead()
			if err != nil {
				return nil, err
			}
			if d.Names, err = p.parseNames(nil); err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case TokWire, TokReg:
			d, err := p.parseNetDecl(m)
			if err != nil {
				return nil, err
			}
			// A `reg` re-declaration of an output port marks that port reg.
			p.mergeDecl(m, d)
		case TokInteger, TokGenvar:
			// Treated as 32-bit regs for elaboration purposes.
			p.next()
			d := &Decl{IsReg: true, Hi: &Number{Value: 31, Width: 32}, Lo: &Number{Value: 0, Width: 32}, Line: p.cur().Line}
			var err error
			if d.Names, err = p.parseNames(nil); err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		case TokParameter, TokLocalParam:
			local := p.next().Kind == TokLocalParam
			// A parameter's optional range is parsed and ignored.
			if _, _, err := p.parseRangeOpt(); err != nil {
				return nil, err
			}
			if err := p.parseList(func() error { return p.parseParam(m, local) }); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
		case TokAssignKW:
			p.next()
			if err := p.parseList(func() error {
				lhs, err := p.parsePrimary()
				if err != nil {
					return err
				}
				if _, err := p.expect(TokAssign); err != nil {
					return err
				}
				rhs, err := p.parseExpr()
				if err != nil {
					return err
				}
				m.Assigns = append(m.Assigns, &ContAssign{LHS: lhs, RHS: rhs, Line: p.cur().Line})
				return nil
			}); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
		case TokAlways:
			ab, err := p.parseAlways()
			if err != nil {
				return nil, err
			}
			m.Always = append(m.Always, ab)
		case TokIdent:
			inst, err := p.parseInstance()
			if err != nil {
				return nil, err
			}
			m.Instances = append(m.Instances, inst)
		default:
			return nil, p.errf("unexpected %s in module body", p.cur())
		}
	}
}

// parseList parses one or more comma-separated items.
func (p *Parser) parseList(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.accept(TokComma) {
			return nil
		}
	}
}

// parseNames parses "name, name;". each, when not nil, parses what may
// follow a name before the next comma.
func (p *Parser) parseNames(each func(name Token) error) ([]string, error) {
	var names []string
	if err := p.parseList(func() error {
		nt, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		names = append(names, nt.Text)
		if each != nil {
			return each(nt)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return names, nil
}

// parseParam parses "name = expr" into a parameter of m.
func (p *Parser) parseParam(m *Module, local bool) error {
	nt, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return err
	}
	val, err := p.parseExpr()
	if err != nil {
		return err
	}
	m.Params = append(m.Params, &Param{Name: nt.Text, Value: val, Local: local})
	return nil
}

// mergeDecl merges a wire/reg declaration into the module, upgrading an
// existing port declaration to reg when names collide.
func (p *Parser) mergeDecl(m *Module, d *Decl) {
	var fresh []string
	for _, n := range d.Names {
		if prev := m.DeclOf(n); prev != nil {
			if d.IsReg {
				prev.IsReg = true
			}
			continue
		}
		fresh = append(fresh, n)
	}
	if len(fresh) > 0 {
		d.Names = fresh
		m.Decls = append(m.Decls, d)
	}
}

func (p *Parser) parseRangeOpt() (hi, lo Expr, err error) {
	if !p.accept(TokLBracket) {
		return nil, nil, nil
	}
	hi, err = p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err = p.expect(TokColon); err != nil {
		return nil, nil, err
	}
	lo, err = p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if _, err = p.expect(TokRBracket); err != nil {
		return nil, nil, err
	}
	return hi, lo, nil
}

// parsePortHead parses what a port declaration starts with, inside the
// port list or in the module body: the direction, reg or wire, and an
// optional range.
func (p *Parser) parsePortHead() (*Decl, error) {
	d := &Decl{IsPort: true, Line: p.cur().Line}
	switch p.next().Kind {
	case TokInput:
		d.Dir = DirInput
	case TokOutput:
		d.Dir = DirOutput
	case TokInout:
		d.Dir = DirInout
	}
	d.IsReg = p.accept(TokReg)
	p.accept(TokWire)
	var err error
	if d.Hi, d.Lo, err = p.parseRangeOpt(); err != nil {
		return nil, err
	}
	return d, nil
}

// parseNetDecl parses "wire [3:0] w1, w2;" or "reg [3:0] r;" possibly with
// an initializer on wires ("wire x = a & b;" becomes a decl + assign).
func (p *Parser) parseNetDecl(m *Module) (*Decl, error) {
	d := &Decl{Line: p.cur().Line}
	d.IsReg = p.next().Kind == TokReg
	var err error
	if d.Hi, d.Lo, err = p.parseRangeOpt(); err != nil {
		return nil, err
	}
	d.Names, err = p.parseNames(func(nt Token) error {
		// Memories (reg [7:0] mem [0:63]) are not supported: reject clearly.
		if p.peekKind(TokLBracket) {
			return p.errf("memory arrays are not supported (signal %s)", nt.Text)
		}
		// "wire x = expr;" net initializer becomes a continuous assignment.
		if !d.IsReg && p.accept(TokAssign) {
			rhs, err := p.parseExpr()
			if err != nil {
				return err
			}
			m.Assigns = append(m.Assigns, &ContAssign{LHS: &Ident{Name: nt.Text}, RHS: rhs, Line: nt.Line})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseAlways() (*AlwaysBlock, error) {
	if _, err := p.expect(TokAlways); err != nil {
		return nil, err
	}
	ab := &AlwaysBlock{}
	if _, err := p.expect(TokAt); err != nil {
		return nil, err
	}
	if p.accept(TokStar) {
		ab.Star = true
	} else {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if p.accept(TokStar) {
			ab.Star = true
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		} else {
			for {
				ev := EdgeEvent{}
				if p.accept(TokPosedge) {
					ev.Posedge = true
				} else if p.accept(TokNegedge) {
					ev.Negedge = true
				}
				nt, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				ev.Signal = nt.Text
				ab.Events = append(ab.Events, ev)
				if !p.accept(TokOrKW) && !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			// Sensitivity on plain signals (no edge) == combinational.
			allPlain := true
			for _, ev := range ab.Events {
				if ev.Posedge || ev.Negedge {
					allPlain = false
				}
			}
			if allPlain {
				ab.Star = true
				ab.Events = nil
			}
		}
	}
	body, err := p.parseStmtOrBlock()
	if err != nil {
		return nil, err
	}
	ab.Body = body
	return ab, nil
}

func (p *Parser) parseStmtOrBlock() ([]Stmt, error) {
	if p.accept(TokBegin) {
		// Optional block label.
		if p.accept(TokColon) {
			if _, err := p.expect(TokIdent); err != nil {
				return nil, err
			}
		}
		var stmts []Stmt
		for !p.accept(TokEnd) {
			if p.peekKind(TokEOF) {
				return nil, p.errf("unexpected EOF in begin/end block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if s != nil {
				stmts = append(stmts, s)
			}
		}
		return stmts, nil
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []Stmt{s}, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	switch p.cur().Kind {
	case TokSemi:
		p.next()
		return nil, nil
	case TokIf:
		p.next()
		cond, err := p.parseParenExpr()
		if err != nil {
			return nil, err
		}
		thenB, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: thenB}
		if p.accept(TokElse) {
			elseB, err := p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
			st.Else = elseB
		}
		return st, nil
	case TokCase, TokCasez:
		p.next()
		subj, err := p.parseParenExpr()
		if err != nil {
			return nil, err
		}
		cs := &CaseStmt{Subject: subj}
		for !p.accept(TokEndCase) {
			if p.peekKind(TokEOF) {
				return nil, p.errf("unexpected EOF in case")
			}
			item := CaseItem{}
			if p.accept(TokDefault) {
				p.accept(TokColon)
			} else {
				if err := p.parseList(func() error {
					e, err := p.parseExpr()
					item.Match = append(item.Match, e)
					return err
				}); err != nil {
					return nil, err
				}
				if _, err := p.expect(TokColon); err != nil {
					return nil, err
				}
			}
			body, err := p.parseStmtOrBlock()
			if err != nil {
				return nil, err
			}
			item.Body = body
			cs.Items = append(cs.Items, item)
		}
		return cs, nil
	case TokBegin:
		body, err := p.parseStmtOrBlock()
		if err != nil {
			return nil, err
		}
		// Represent a bare begin/end as an if(1) wrapper-free list; fold into
		// an IfStmt with constant true to keep Stmt single-valued.
		return &IfStmt{Cond: &Number{Value: 1, Width: 1, Sized: true}, Then: body}, nil
	default:
		lhs, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		st := &AssignStmt{LHS: lhs, Line: p.cur().Line}
		switch p.cur().Kind {
		case TokAssign:
			p.next()
		case TokNBAssign:
			p.next()
			st.NonBlocking = true
		default:
			return nil, p.errf("expected = or <= in assignment, found %s", p.cur())
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.RHS = rhs
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return st, nil
	}
}

func (p *Parser) parseInstance() (*Instance, error) {
	inst := &Instance{ModuleName: p.next().Text}
	if p.accept(TokHash) {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		if err := p.parseList(func() error {
			var c PortConn
			var err error
			if p.peekKind(TokDot) {
				c, err = p.parseConn(false)
			} else {
				c.Expr, err = p.parseExpr()
			}
			inst.Params = append(inst.Params, c)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	inst.Name = nameTok.Text
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if !p.peekKind(TokRParen) {
		if err := p.parseList(func() error {
			c, err := p.parseConn(true)
			inst.Conns = append(inst.Conns, c)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return inst, nil
}

// parseConn parses ".name(expr)". When optional, the expression may be
// left out, for an unconnected port.
func (p *Parser) parseConn(optional bool) (PortConn, error) {
	if _, err := p.expect(TokDot); err != nil {
		return PortConn{}, err
	}
	nt, err := p.expect(TokIdent)
	if err != nil {
		return PortConn{}, err
	}
	c := PortConn{Port: nt.Text}
	if _, err := p.expect(TokLParen); err != nil {
		return c, err
	}
	if !optional || !p.peekKind(TokRParen) {
		if c.Expr, err = p.parseExpr(); err != nil {
			return c, err
		}
	}
	_, err = p.expect(TokRParen)
	return c, err
}

// nest enters one more level of nesting, or fails past MaxNesting; a
// caller that succeeds defers p.unnest.
func (p *Parser) nest() error {
	if p.depth == MaxNesting {
		return p.errf("nesting deeper than %d levels", MaxNesting)
	}
	p.depth++
	return nil
}

func (p *Parser) unnest() { p.depth-- }

// ---- Expression parsing (precedence climbing) ----

// Binary operator precedence, higher binds tighter. Mirrors Verilog.
var binPrec = map[TokenKind]int{
	TokLOr:      1,
	TokLAnd:     2,
	TokOr:       3,
	TokXor:      4,
	TokXnor:     4,
	TokAnd:      5,
	TokEq:       6,
	TokNeq:      6,
	TokCaseEq:   6,
	TokLt:       7,
	TokGt:       7,
	TokGe:       7,
	TokNBAssign: 7, // "<=" in expression context means less-or-equal
	TokShl:      8,
	TokShr:      8,
	TokPlus:     9,
	TokMinus:    9,
	TokStar:     10,
	TokSlash:    10,
	TokPct:      10,
}

func (p *Parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *Parser) parseTernary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(TokQuestion) {
		return cond, nil
	}
	t, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, T: t, F: f}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next().Kind
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		text := op.String()
		if op == TokCaseEq {
			text = "==" // x and z digits read as 0, so === is ==
		}
		lhs = &Binary{Op: text, L: lhs, R: rhs}
	}
}

// parseUnary parses prefix operators. Each is spelled as its token, except
// ~& and ~|, which lex as ~ and carry their spelling, and unary + is
// dropped.
func (p *Parser) parseUnary() (Expr, error) {
	switch t := p.cur(); t.Kind {
	case TokNot, TokLNot, TokMinus, TokPlus, TokAnd, TokOr, TokXor, TokXnor:
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		p.next()
		x, err := p.parseUnary()
		if err != nil || t.Kind == TokPlus {
			return x, err
		}
		op := t.Kind.String()
		if t.Text != "" {
			op = t.Text
		}
		return &Unary{Op: op, X: x}, nil
	}
	return p.parsePrimary()
}

// parseParenExpr parses "( expr )".
func (p *Parser) parseParenExpr() (Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case TokNumber:
		n, err := ParseNumber(p.next().Text)
		if err != nil {
			return nil, err
		}
		return n, nil
	case TokIdent:
		var e Expr = &Ident{Name: p.next().Text}
		for p.accept(TokLBracket) {
			first, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.accept(TokColon) {
				lo, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				e = &Range{X: e, Hi: first, Lo: lo}
			} else {
				e = &Index{X: e, Idx: first}
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
		}
		return e, nil
	case TokLParen:
		return p.parseParenExpr()
	case TokLBrace:
		p.next()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// Replication: {N{expr}}
		if p.peekKind(TokLBrace) {
			p.next()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
			return &Repl{Count: first, X: inner}, nil
		}
		c := &Concat{Parts: []Expr{first}}
		for p.accept(TokComma) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, p.errf("unexpected %s in expression", p.cur())
	}
}
