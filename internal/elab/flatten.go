package elab

import (
	"fmt"

	"rtltimer/internal/verilog"
)

// declInfo is a flattened signal declaration.
type declInfo struct {
	name     string
	width    int
	isReg    bool
	isInput  bool // top-level input
	isOutput bool // top-level output
	line     int
}

// flatModule is the result of flattening: a single module with all
// instances inlined and all parameters substituted by constants.
type flatModule struct {
	name    string
	decls   []*declInfo
	byName  map[string]*declInfo
	assigns []*verilog.ContAssign
	always  []*verilog.AlwaysBlock
}

// evalConst evaluates a constant expression (after parameter substitution).
// It gives up after visiting verilog.MaxNesting nodes: elaboration also
// asks it about values that blocking assignments have substituted, whose
// shared subtrees an unbounded walk would unfold to exponential size.
func evalConst(e verilog.Expr) (int64, error) {
	budget := verilog.MaxNesting
	return evalConstIn(e, &budget)
}

func evalConstIn(e verilog.Expr, budget *int) (int64, error) {
	if *budget--; *budget < 0 {
		return 0, fmt.Errorf("elab: constant expression of more than %d nodes", verilog.MaxNesting)
	}
	switch x := e.(type) {
	case *verilog.Number:
		return int64(x.Value), nil
	case *verilog.Unary:
		v, err := evalConstIn(x.X, budget)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("elab: non-constant unary %q", x.Op)
	case *verilog.Binary:
		l, err := evalConstIn(x.L, budget)
		if err != nil {
			return 0, err
		}
		r, err := evalConstIn(x.R, budget)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("elab: constant division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("elab: constant modulo by zero")
			}
			return l % r, nil
		case "<<":
			return l << uint(r), nil
		case ">>":
			return l >> uint(r), nil
		case "&":
			return l & r, nil
		case "|":
			return l | r, nil
		case "^":
			return l ^ r, nil
		case "==":
			if l == r {
				return 1, nil
			}
			return 0, nil
		case "<":
			if l < r {
				return 1, nil
			}
			return 0, nil
		case ">":
			if l > r {
				return 1, nil
			}
			return 0, nil
		case ">=":
			if l >= r {
				return 1, nil
			}
			return 0, nil
		case "<=":
			if l <= r {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("elab: non-constant binary %q", x.Op)
	case *verilog.Ternary:
		c, err := evalConstIn(x.Cond, budget)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return evalConstIn(x.T, budget)
		}
		return evalConstIn(x.F, budget)
	case *verilog.Ident:
		return 0, fmt.Errorf("elab: unresolved identifier %q in constant expression", x.Name)
	default:
		return 0, fmt.Errorf("elab: unsupported constant expression %T", e)
	}
}

// constRange evaluates the bounds of a constant range [hi:lo] and orders
// them so that hi >= lo.
func constRange(hiE, loE verilog.Expr) (hi, lo int64, err error) {
	if hi, err = evalConst(hiE); err != nil {
		return 0, 0, err
	}
	if lo, err = evalConst(loE); err != nil {
		return 0, 0, err
	}
	if hi < lo {
		hi, lo = lo, hi
	}
	return hi, lo, nil
}

// rewrite copies x with every identifier replaced by ident's result.
// Part-select bounds and replication counts are constant expressions, not
// reads of a signal: they are rewritten only when consts is set.
func rewrite(x verilog.Expr, consts bool, ident func(*verilog.Ident) (verilog.Expr, error)) (verilog.Expr, error) {
	var err error
	re := func(x verilog.Expr) verilog.Expr {
		if err != nil {
			return nil
		}
		var y verilog.Expr
		y, err = rewrite(x, consts, ident)
		return y
	}
	var out verilog.Expr
	switch v := x.(type) {
	case *verilog.Number:
		return v, nil
	case *verilog.Ident:
		return ident(v)
	case *verilog.Unary:
		out = &verilog.Unary{Op: v.Op, X: re(v.X)}
	case *verilog.Binary:
		out = &verilog.Binary{Op: v.Op, L: re(v.L), R: re(v.R)}
	case *verilog.Ternary:
		out = &verilog.Ternary{Cond: re(v.Cond), T: re(v.T), F: re(v.F)}
	case *verilog.Index:
		out = &verilog.Index{X: re(v.X), Idx: re(v.Idx)}
	case *verilog.Range:
		r := &verilog.Range{X: re(v.X), Hi: v.Hi, Lo: v.Lo}
		if consts {
			r.Hi, r.Lo = re(v.Hi), re(v.Lo)
		}
		out = r
	case *verilog.Concat:
		parts := make([]verilog.Expr, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = re(p)
		}
		out = &verilog.Concat{Parts: parts}
	case *verilog.Repl:
		r := &verilog.Repl{Count: v.Count, X: re(v.X)}
		if consts {
			r.Count = re(v.Count)
		}
		out = r
	default:
		return nil, fmt.Errorf("elab: unsupported expression %T", x)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// substEnv maps identifier names to replacement expressions: parameters map
// to constants, signal names map to their prefixed idents.
type substEnv map[string]verilog.Expr

// subst rewrites an expression for inlining under env.
func (env substEnv) subst(x verilog.Expr) (verilog.Expr, error) {
	return rewrite(x, true, func(id *verilog.Ident) (verilog.Expr, error) {
		if r, ok := env[id.Name]; ok {
			return r, nil
		}
		return nil, fmt.Errorf("elab: undeclared identifier %q", id.Name)
	})
}

func substStmts(stmts []verilog.Stmt, env substEnv) ([]verilog.Stmt, error) {
	out := make([]verilog.Stmt, 0, len(stmts))
	for _, s := range stmts {
		switch st := s.(type) {
		case *verilog.AssignStmt:
			lhs, err := env.subst(st.LHS)
			if err != nil {
				return nil, err
			}
			rhs, err := env.subst(st.RHS)
			if err != nil {
				return nil, err
			}
			out = append(out, &verilog.AssignStmt{LHS: lhs, RHS: rhs, NonBlocking: st.NonBlocking, Line: st.Line})
		case *verilog.IfStmt:
			cond, err := env.subst(st.Cond)
			if err != nil {
				return nil, err
			}
			thenB, err := substStmts(st.Then, env)
			if err != nil {
				return nil, err
			}
			elseB, err := substStmts(st.Else, env)
			if err != nil {
				return nil, err
			}
			out = append(out, &verilog.IfStmt{Cond: cond, Then: thenB, Else: elseB})
		case *verilog.CaseStmt:
			subj, err := env.subst(st.Subject)
			if err != nil {
				return nil, err
			}
			cs := &verilog.CaseStmt{Subject: subj}
			for _, item := range st.Items {
				ni := verilog.CaseItem{}
				for _, mexp := range item.Match {
					me, err := env.subst(mexp)
					if err != nil {
						return nil, err
					}
					ni.Match = append(ni.Match, me)
				}
				body, err := substStmts(item.Body, env)
				if err != nil {
					return nil, err
				}
				ni.Body = body
				cs.Items = append(cs.Items, ni)
			}
			out = append(out, cs)
		default:
			return nil, fmt.Errorf("elab: unsupported statement %T", s)
		}
	}
	return out, nil
}

// flattenCtx carries state across recursive inlining.
type flattenCtx struct {
	src       *verilog.Source
	fm        *flatModule
	depth     int
	instances int // modules inlined so far, the top included
}

const (
	maxHierDepth = 64
	// maxInstances bounds the modules one design inlines. Depth alone does
	// not bound them: ten modules that each instantiate the next ten times
	// ask for 10^10 in a few hundred bytes of source.
	maxInstances = 1 << 16
)

// flatten inlines the module hierarchy rooted at top into a single flat
// module with parameters resolved to constants.
func flatten(src *verilog.Source, top *verilog.Module) (*flatModule, error) {
	fm := &flatModule{name: top.Name, byName: map[string]*declInfo{}}
	fc := &flattenCtx{src: src, fm: fm}
	if err := fc.inline("", top, nil, nil, true); err != nil {
		return nil, err
	}
	return fm, nil
}

// paramValues resolves a module's parameters given overrides.
func paramValues(m *verilog.Module, overrides map[string]int64) (map[string]int64, error) {
	vals := map[string]int64{}
	for _, p := range m.Params {
		if ov, ok := overrides[p.Name]; ok && !p.Local {
			vals[p.Name] = ov
			continue
		}
		// Substitute earlier parameters into the default expression.
		env := substEnv{}
		for n, v := range vals {
			env[n] = &verilog.Number{Value: uint64(v), Width: 32}
		}
		e, err := env.subst(p.Value)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		v, err := evalConst(e)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		vals[p.Name] = v
	}
	return vals, nil
}

// inline inlines module m under the given hierarchical prefix. portBind maps
// the module's port names to expressions in the *flattened* namespace
// (already substituted). When isTop is true ports become design I/Os.
func (fc *flattenCtx) inline(prefix string, m *verilog.Module, overrides map[string]int64, portBind map[string]verilog.Expr, isTop bool) error {
	if fc.depth++; fc.depth > maxHierDepth {
		return fmt.Errorf("elab: hierarchy deeper than %d (recursive instantiation of %s?)", maxHierDepth, m.Name)
	}
	defer func() { fc.depth-- }()
	if fc.instances++; fc.instances > maxInstances {
		return fmt.Errorf("elab: more than %d module instances to inline", maxInstances)
	}

	params, err := paramValues(m, overrides)
	if err != nil {
		return fmt.Errorf("elab: module %s: %w", m.Name, err)
	}
	paramEnv := substEnv{}
	for n, v := range params {
		paramEnv[n] = &verilog.Number{Value: uint64(v), Width: 32}
	}

	// Declare all signals with resolved widths.
	env := substEnv{}
	for n, v := range paramEnv {
		env[n] = v
	}
	for _, decl := range m.Decls {
		width := 1
		if decl.Hi != nil {
			hiE, err := paramEnv.subst(decl.Hi)
			if err != nil {
				return fmt.Errorf("elab: module %s: %w", m.Name, err)
			}
			loE, err := paramEnv.subst(decl.Lo)
			if err != nil {
				return fmt.Errorf("elab: module %s: %w", m.Name, err)
			}
			hi, lo, err := constRange(hiE, loE)
			if err != nil {
				return fmt.Errorf("elab: module %s: %w", m.Name, err)
			}
			// hi-lo wraps past the int64 range, but as a uint64 it is
			// exact, so this holds however far apart the bounds are.
			if uint64(hi-lo) >= 64 {
				return fmt.Errorf("elab: module %s: signal %s wider than 64 bits ([%d:%d])", m.Name, decl.Names[0], hi, lo)
			}
			width = int(hi - lo + 1)
		}
		for _, name := range decl.Names {
			flat := name
			if prefix != "" {
				flat = prefix + "." + name
			}
			if _, dup := fc.fm.byName[flat]; dup {
				return fmt.Errorf("elab: duplicate signal %s", flat)
			}
			di := &declInfo{
				name:  flat,
				width: width,
				isReg: decl.IsReg,
				line:  decl.Line,
			}
			if isTop && decl.IsPort {
				di.isInput = decl.Dir == verilog.DirInput
				di.isOutput = decl.Dir == verilog.DirOutput
				if decl.Dir == verilog.DirInout {
					return fmt.Errorf("elab: inout ports are not supported (%s)", flat)
				}
			}
			fc.fm.decls = append(fc.fm.decls, di)
			fc.fm.byName[flat] = di
			env[name] = &verilog.Ident{Name: flat}
		}
	}

	// Bind non-top ports: an input port is driven by the parent expression;
	// an output port drives the parent expression (which must be an lvalue).
	if !isTop {
		for _, decl := range m.Decls {
			if !decl.IsPort {
				continue
			}
			for _, name := range decl.Names {
				bind, ok := portBind[name]
				if !ok || bind == nil {
					continue // unconnected port
				}
				flatIdent := env[name]
				switch decl.Dir {
				case verilog.DirInput:
					fc.fm.assigns = append(fc.fm.assigns, &verilog.ContAssign{LHS: flatIdent, RHS: bind, Line: decl.Line})
				case verilog.DirOutput:
					fc.fm.assigns = append(fc.fm.assigns, &verilog.ContAssign{LHS: bind, RHS: flatIdent, Line: decl.Line})
				}
			}
		}
	}

	// Continuous assignments.
	for _, as := range m.Assigns {
		lhs, err := env.subst(as.LHS)
		if err != nil {
			return fmt.Errorf("elab: module %s: %w", m.Name, err)
		}
		rhs, err := env.subst(as.RHS)
		if err != nil {
			return fmt.Errorf("elab: module %s: %w", m.Name, err)
		}
		fc.fm.assigns = append(fc.fm.assigns, &verilog.ContAssign{LHS: lhs, RHS: rhs, Line: as.Line})
	}

	// Always blocks.
	for _, ab := range m.Always {
		body, err := substStmts(ab.Body, env)
		if err != nil {
			return fmt.Errorf("elab: module %s: %w", m.Name, err)
		}
		events := make([]verilog.EdgeEvent, len(ab.Events))
		for i, ev := range ab.Events {
			events[i] = ev
			if sub, ok := env[ev.Signal]; ok {
				if id, ok := sub.(*verilog.Ident); ok {
					events[i].Signal = id.Name
				}
			}
		}
		fc.fm.always = append(fc.fm.always, &verilog.AlwaysBlock{Events: events, Star: ab.Star, Body: body})
	}

	// Instances: recurse.
	for _, inst := range m.Instances {
		child := fc.src.FindModule(inst.ModuleName)
		if child == nil {
			return fmt.Errorf("elab: module %s: unknown module %q in instance %s", m.Name, inst.ModuleName, inst.Name)
		}
		childPrefix := inst.Name
		if prefix != "" {
			childPrefix = prefix + "." + inst.Name
		}
		ov := map[string]int64{}
		for i, pc := range inst.Params {
			pe, err := env.subst(pc.Expr)
			if err != nil {
				return fmt.Errorf("elab: instance %s: %w", childPrefix, err)
			}
			v, err := evalConst(pe)
			if err != nil {
				return fmt.Errorf("elab: instance %s: parameter must be constant: %w", childPrefix, err)
			}
			name := pc.Port
			if name == "" {
				// Positional parameter: match declaration order of
				// non-local parameters.
				idx := 0
				for _, p := range child.Params {
					if p.Local {
						continue
					}
					if idx == i {
						name = p.Name
						break
					}
					idx++
				}
				if name == "" {
					return fmt.Errorf("elab: instance %s: too many positional parameters", childPrefix)
				}
			}
			ov[name] = v
		}
		bind := map[string]verilog.Expr{}
		for _, conn := range inst.Conns {
			if conn.Expr == nil {
				continue
			}
			be, err := env.subst(conn.Expr)
			if err != nil {
				return fmt.Errorf("elab: instance %s: %w", childPrefix, err)
			}
			bind[conn.Port] = be
		}
		if err := fc.inline(childPrefix, child, ov, bind, false); err != nil {
			return err
		}
	}
	return nil
}
