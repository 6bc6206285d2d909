package verilog

import (
	"fmt"
	"strconv"
	"strings"
)

// ---- Expressions ----

// Expr is a Verilog expression node.
type Expr interface {
	exprNode()
	// String renders the expression back as Verilog source.
	String() string
}

// Ident is a reference to a named signal or parameter.
type Ident struct {
	Name string
}

// Number is a literal constant. Width 0 means unsized (context decides).
type Number struct {
	Width int    // declared width (0 = unsized)
	Value uint64 // value (x/z treated as 0)
	Sized bool
	orig  string
}

// Unary is a prefix operator application. Op is one of
// ~ ! - + & | ^ ~& ~| ~^ (reduction and logical variants).
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator application.
type Binary struct {
	Op   string
	L, R Expr
}

// Ternary is cond ? t : f.
type Ternary struct {
	Cond, T, F Expr
}

// Index is a bit select x[i].
type Index struct {
	X   Expr
	Idx Expr
}

// Range is a part select x[hi:lo]; bounds must be constant.
type Range struct {
	X      Expr
	Hi, Lo Expr
}

// Concat is {a, b, c}.
type Concat struct {
	Parts []Expr
}

// Repl is {n{x}}.
type Repl struct {
	Count Expr
	X     Expr
}

// Cast forces an expression to an explicit width (zero-extend or truncate).
// It is never produced by the parser; elaboration inserts it when splitting
// assignments. It prints as its inner expression.
type Cast struct {
	X Expr
	W int
}

func (*Ident) exprNode()   {}
func (*Number) exprNode()  {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}
func (*Ternary) exprNode() {}
func (*Index) exprNode()   {}
func (*Range) exprNode()   {}
func (*Concat) exprNode()  {}
func (*Repl) exprNode()    {}
func (*Cast) exprNode()    {}

func (e *Cast) String() string { return e.X.String() }

func (e *Ident) String() string { return e.Name }

func (e *Number) String() string {
	if e.orig != "" {
		return e.orig
	}
	if e.Sized {
		return fmt.Sprintf("%d'd%d", e.Width, e.Value)
	}
	return strconv.FormatUint(e.Value, 10)
}

func (e *Unary) String() string   { return e.Op + parens(e.X) }
func (e *Binary) String() string  { return parens(e.L) + " " + e.Op + " " + parens(e.R) }
func (e *Ternary) String() string { return parens(e.Cond) + " ? " + parens(e.T) + " : " + parens(e.F) }
func (e *Index) String() string   { return parens(e.X) + "[" + e.Idx.String() + "]" }
func (e *Range) String() string {
	return parens(e.X) + "[" + e.Hi.String() + ":" + e.Lo.String() + "]"
}
func (e *Concat) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (e *Repl) String() string { return "{" + e.Count.String() + "{" + e.X.String() + "}}" }

func parens(e Expr) string {
	switch e.(type) {
	case *Ident, *Number, *Index, *Range, *Concat, *Repl:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// ---- Statements (inside always blocks) ----

// Stmt is a procedural statement.
type Stmt interface {
	stmtNode()
}

// AssignStmt is a blocking (=) or nonblocking (<=) procedural assignment.
type AssignStmt struct {
	LHS         Expr // Ident, Index or Range
	RHS         Expr
	NonBlocking bool
	Line        int
}

// IfStmt is if (cond) then else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
}

// CaseItem is one arm of a case statement.
type CaseItem struct {
	// Match expressions; empty means the default arm.
	Match []Expr
	Body  []Stmt
}

// CaseStmt is case (subject) ... endcase.
type CaseStmt struct {
	Subject Expr
	Items   []CaseItem
}

func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*CaseStmt) stmtNode()   {}

// ---- Module structure ----

// PortDir is the direction of a module port.
type PortDir int

// Port directions.
const (
	DirInput PortDir = iota
	DirOutput
	DirInout
)

func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	default:
		return "inout"
	}
}

// Decl declares one or more nets or variables with a shared range.
type Decl struct {
	Names  []string
	Hi, Lo Expr // nil for scalar
	IsReg  bool
	Dir    PortDir // valid only when IsPort
	IsPort bool
	Line   int
}

// Param is a parameter or localparam definition.
type Param struct {
	Name  string
	Value Expr
	Local bool
}

// ContAssign is a continuous assignment: assign lhs = rhs.
type ContAssign struct {
	LHS  Expr
	RHS  Expr
	Line int
}

// EdgeEvent describes one event in a sensitivity list.
type EdgeEvent struct {
	Posedge bool
	Negedge bool
	Signal  string // empty for @(*)
}

// AlwaysBlock is an always process.
type AlwaysBlock struct {
	Events []EdgeEvent // empty slice means @(*)
	Star   bool
	Body   []Stmt
}

// PortConn is a named connection in a module instance.
type PortConn struct {
	Port string
	Expr Expr // nil for unconnected
}

// Instance is a module instantiation.
type Instance struct {
	ModuleName string
	Name       string
	Params     []PortConn // named parameter overrides
	Conns      []PortConn
}

// Module is a parsed Verilog module.
type Module struct {
	Name      string
	Decls     []*Decl
	Params    []*Param
	Assigns   []*ContAssign
	Always    []*AlwaysBlock
	Instances []*Instance
}

// Source is a parsed source file: one or more modules.
type Source struct {
	Modules []*Module
}

// FindModule returns the module with the given name, or nil.
func (s *Source) FindModule(name string) *Module {
	for _, m := range s.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Top returns the top-level module: the unique module never instantiated by
// another. If several qualify the first declared one wins.
func (s *Source) Top() *Module {
	instantiated := map[string]bool{}
	for _, m := range s.Modules {
		for _, inst := range m.Instances {
			instantiated[inst.ModuleName] = true
		}
	}
	for _, m := range s.Modules {
		if !instantiated[m.Name] {
			return m
		}
	}
	if len(s.Modules) > 0 {
		return s.Modules[0]
	}
	return nil
}

// DeclOf returns the declaration covering the named signal, or nil.
func (m *Module) DeclOf(name string) *Decl {
	for _, d := range m.Decls {
		for _, n := range d.Names {
			if n == name {
				return d
			}
		}
	}
	return nil
}

// ParseNumber parses a Verilog numeric literal (e.g. "8'hFF", "4'b1010",
// "13"). x and z digits are mapped to 0.
func ParseNumber(text string) (*Number, error) {
	n := &Number{orig: text}
	quote := strings.IndexByte(text, '\'')
	if quote < 0 {
		v, err := strconv.ParseUint(strings.ReplaceAll(text, "_", ""), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("verilog: bad number %q: %w", text, err)
		}
		n.Value = v
		n.Width = 32
		return n, nil
	}
	n.Sized = true
	widthPart := strings.TrimSpace(text[:quote])
	if widthPart == "" {
		n.Width = 32
	} else {
		w, err := strconv.Atoi(widthPart)
		if err != nil || w <= 0 || w > 64 {
			return nil, fmt.Errorf("verilog: bad width in %q", text)
		}
		n.Width = w
	}
	rest := text[quote+1:]
	if rest == "" {
		return nil, fmt.Errorf("verilog: bad number %q", text)
	}
	if rest[0] == 's' || rest[0] == 'S' {
		rest = rest[1:]
	}
	if rest == "" {
		return nil, fmt.Errorf("verilog: bad number %q", text)
	}
	base := 10
	switch rest[0] {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'd', 'D':
		base = 10
	case 'h', 'H':
		base = 16
	default:
		return nil, fmt.Errorf("verilog: bad base in %q", text)
	}
	digits := strings.ReplaceAll(rest[1:], "_", "")
	digits = strings.Map(func(r rune) rune {
		if r == 'x' || r == 'X' || r == 'z' || r == 'Z' {
			return '0'
		}
		return r
	}, digits)
	if digits == "" {
		return nil, fmt.Errorf("verilog: empty digits in %q", text)
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return nil, fmt.Errorf("verilog: bad number %q: %w", text, err)
	}
	if n.Width < 64 {
		v &= (1 << uint(n.Width)) - 1
	}
	n.Value = v
	return n, nil
}
