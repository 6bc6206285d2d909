package elab

import (
	"fmt"
	"math"
	"sort"

	"rtltimer/internal/verilog"
)

// Elaborate flattens and elaborates the top module of src into a word-level
// Design.
func Elaborate(src *verilog.Source) (*Design, error) {
	top := src.Top()
	if top == nil {
		return nil, fmt.Errorf("elab: no top module")
	}
	return ElaborateModule(src, top.Name)
}

// ElaborateModule elaborates the named module as the design top.
func ElaborateModule(src *verilog.Source, topName string) (*Design, error) {
	top := src.FindModule(topName)
	if top == nil {
		return nil, fmt.Errorf("elab: module %q not found", topName)
	}
	fm, err := flatten(src, top)
	if err != nil {
		return nil, err
	}
	e := &elaborator{
		d:        newDesign(top.Name),
		fm:       fm,
		memo:     map[string]NodeID{},
		built:    map[builtKey]NodeID{},
		drivers:  map[string][]partDriver{},
		regD:     map[string]verilog.Expr{},
		regClk:   map[string]string{},
		building: map[string]bool{},
	}
	return e.run()
}

// partDriver is one (possibly partial) driver of a wire.
type partDriver struct {
	hi, lo int
	expr   verilog.Expr
}

// builtKey is a composite expression built at a context width.
type builtKey struct {
	x   verilog.Expr
	ctx int
}

type elaborator struct {
	d    *Design
	fm   *flatModule
	memo map[string]NodeID
	// built memoizes build on composite expressions. Symbolic execution
	// shares subtrees (a merge puts the old value under both arms), so
	// without it a chain of statements builds in time exponential in its
	// length. Only a subtree whose build made more than two nested build
	// calls is entered: a cheaper one costs a constant to rebuild.
	built    map[builtKey]NodeID
	calls    int // build calls made so far
	depth    int // build calls in progress, bounded by verilog.MaxNesting
	drivers  map[string][]partDriver
	regD     map[string]verilog.Expr
	regClk   map[string]string
	building map[string]bool
	// pendingRegs queues registers whose D cone still needs building; D
	// construction is deferred so that paths through a register are never
	// mistaken for combinational loops.
	pendingRegs []string
}

func (e *elaborator) width(name string) (int, error) {
	di, ok := e.fm.byName[name]
	if !ok {
		return 0, fmt.Errorf("elab: unknown signal %q", name)
	}
	return di.width, nil
}

func (e *elaborator) warnf(format string, args ...any) {
	e.d.Warnings = append(e.d.Warnings, fmt.Sprintf(format, args...))
}

func (e *elaborator) run() (*Design, error) {
	// Phase 1: process always blocks to discover registers and
	// combinational targets.
	for _, ab := range e.fm.always {
		if err := e.processAlways(ab); err != nil {
			return nil, err
		}
	}
	// Phase 2: continuous assignments become drivers.
	for _, as := range e.fm.assigns {
		if err := e.addContAssign(as); err != nil {
			return nil, err
		}
	}
	// Phase 3: create the signal table.
	for _, di := range e.fm.decls {
		_, isReg := e.regD[di.name]
		e.d.addSignal(Signal{
			Name:       di.name,
			Width:      di.width,
			IsReg:      isReg,
			IsInput:    di.isInput,
			IsOutput:   di.isOutput,
			SourceLine: di.line,
		})
	}
	// Phase 4: build every signal; registers first for determinism.
	names := make([]string, 0, len(e.fm.decls))
	for _, di := range e.fm.decls {
		names = append(names, di.name)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, isReg := e.regD[n]; isReg {
			if _, err := e.valueOf(n); err != nil {
				return nil, err
			}
			if err := e.drainRegs(); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range names {
		if _, err := e.valueOf(n); err != nil {
			return nil, err
		}
		if err := e.drainRegs(); err != nil {
			return nil, err
		}
	}
	// Phase 5: top outputs.
	for _, di := range e.fm.decls {
		if !di.isOutput {
			continue
		}
		id, _ := e.d.SignalID(di.name)
		node, err := e.valueOf(di.name)
		if err != nil {
			return nil, err
		}
		e.d.Outputs = append(e.d.Outputs, Output{Sig: id, Node: node})
	}
	// Collect clock list.
	seen := map[string]bool{}
	for _, clk := range e.regClk {
		if !seen[clk] {
			seen[clk] = true
			e.d.Clocks = append(e.d.Clocks, clk)
		}
	}
	sort.Strings(e.d.Clocks)
	return e.d, nil
}

// ---- Always-block symbolic execution ----

// state tracks the symbolic values of assignment targets within a block.
// B holds the "blocking view" (reads see these values); NB holds values
// written with <= (reads do not see them).
type state struct {
	B  map[string]verilog.Expr
	NB map[string]verilog.Expr
}

func newState() *state {
	return &state{B: map[string]verilog.Expr{}, NB: map[string]verilog.Expr{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.B {
		c.B[k] = v
	}
	for k, v := range s.NB {
		c.NB[k] = v
	}
	return c
}

// processAlways symbolically executes one always block.
func (e *elaborator) processAlways(ab *verilog.AlwaysBlock) error {
	seq := !ab.Star && len(ab.Events) > 0
	var clock string
	if seq {
		clock = pickClock(ab)
	}
	st := newState()
	if err := e.execStmts(ab.Body, st, seq); err != nil {
		return err
	}
	// Commit targets.
	targets := map[string]verilog.Expr{}
	for k, v := range st.B {
		targets[k] = v
	}
	for k, v := range st.NB {
		targets[k] = v // nonblocking wins when mixed
	}
	for name, expr := range targets {
		if expr == nil {
			continue
		}
		if seq {
			if _, dup := e.regD[name]; dup {
				return fmt.Errorf("elab: register %s assigned in multiple always blocks", name)
			}
			e.regD[name] = expr
			e.regClk[name] = clock
		} else {
			w, err := e.width(name)
			if err != nil {
				return err
			}
			if len(e.drivers[name]) > 0 {
				return fmt.Errorf("elab: signal %s driven by both always block and assignment", name)
			}
			e.drivers[name] = append(e.drivers[name], partDriver{hi: w - 1, lo: 0, expr: expr})
		}
	}
	return nil
}

// pickClock chooses the clock from the sensitivity list: the first edge
// signal that is not read in the block body; remaining edge events (e.g.
// async resets) are treated as synchronous conditions.
func pickClock(ab *verilog.AlwaysBlock) string {
	reads := map[string]bool{}
	read := func(x verilog.Expr) {
		// No error: flatten has rewritten the body, so rewrite can walk it.
		_, _ = rewrite(x, false, func(id *verilog.Ident) (verilog.Expr, error) {
			reads[id.Name] = true
			return id, nil
		})
	}
	var walk func([]verilog.Stmt)
	walk = func(stmts []verilog.Stmt) {
		for _, s := range stmts {
			switch v := s.(type) {
			case *verilog.AssignStmt:
				read(v.RHS)
			case *verilog.IfStmt:
				read(v.Cond)
				walk(v.Then)
				walk(v.Else)
			case *verilog.CaseStmt:
				read(v.Subject)
				for _, it := range v.Items {
					for _, m := range it.Match {
						read(m)
					}
					walk(it.Body)
				}
			}
		}
	}
	walk(ab.Body)
	for _, ev := range ab.Events {
		if !reads[ev.Signal] {
			return ev.Signal
		}
	}
	return ab.Events[0].Signal
}

func (e *elaborator) execStmts(stmts []verilog.Stmt, st *state, seq bool) error {
	for _, s := range stmts {
		switch v := s.(type) {
		case *verilog.AssignStmt:
			if err := e.execAssign(v, st, seq); err != nil {
				return err
			}
		case *verilog.IfStmt:
			if err := e.execIf(v, st, seq); err != nil {
				return err
			}
		case *verilog.CaseStmt:
			if err := e.execCase(v, st, seq); err != nil {
				return err
			}
		default:
			return fmt.Errorf("elab: unsupported statement %T", s)
		}
	}
	return nil
}

// substReads replaces identifiers that have pending blocking values.
func substReads(x verilog.Expr, env map[string]verilog.Expr) (verilog.Expr, error) {
	return rewrite(x, false, func(id *verilog.Ident) (verilog.Expr, error) {
		if r := env[id.Name]; r != nil {
			return r, nil
		}
		return id, nil
	})
}

// curValue returns the expression currently representing the target within
// the block: a pending value or, for sequential blocks, the register's own
// output (hold). Returns nil when the value is undefined (combinational,
// never assigned).
func (e *elaborator) curValue(name string, st *state, nb, seq bool) verilog.Expr {
	if nb {
		if v, ok := st.NB[name]; ok && v != nil {
			return v
		}
	}
	if v, ok := st.B[name]; ok && v != nil {
		return v
	}
	if seq {
		return &verilog.Ident{Name: name}
	}
	return nil
}

// astSlice returns an AST expression selecting bits [hi:lo] of x.
func astSlice(x verilog.Expr, hi, lo, fullWidth int) verilog.Expr {
	if lo == 0 && hi == fullWidth-1 {
		return x
	}
	if hi == lo {
		return &verilog.Index{X: x, Idx: &verilog.Number{Value: uint64(lo), Width: 32}}
	}
	return &verilog.Range{X: x,
		Hi: &verilog.Number{Value: uint64(hi), Width: 32},
		Lo: &verilog.Number{Value: uint64(lo), Width: 32}}
}

// target is the part of one signal an assignment writes: bits [hi:lo] of
// name, a signal w bits wide. whole marks a bare name, which takes the
// value it is given as it is.
type target struct {
	name      string
	hi, lo, w int
	whole     bool
}

// lvalue decodes one assignment target: a name, or a constant bit or part
// select of one.
func (e *elaborator) lvalue(lhs verilog.Expr, line int) (target, error) {
	var t target
	x := lhs
	switch v := lhs.(type) {
	case *verilog.Ident:
		t.whole = true
	case *verilog.Index:
		idx, err := evalConst(v.Idx)
		if err != nil {
			return t, fmt.Errorf("elab: line %d: variable bit-select assignment targets are not supported: %w", line, err)
		}
		x, t.hi, t.lo = v.X, int(idx), int(idx)
	case *verilog.Range:
		hi, lo, err := constRange(v.Hi, v.Lo)
		if err != nil {
			return t, fmt.Errorf("elab: line %d: %w", line, err)
		}
		x, t.hi, t.lo = v.X, int(hi), int(lo)
	}
	id, ok := x.(*verilog.Ident)
	if !ok {
		return t, fmt.Errorf("elab: line %d: unsupported assignment target %s", line, lhs)
	}
	w, err := e.width(id.Name)
	if err != nil {
		return t, fmt.Errorf("elab: line %d: assignment to undeclared signal %q", line, id.Name)
	}
	if t.whole {
		t.hi = w - 1
	} else if t.hi >= w || t.lo < 0 {
		return t, fmt.Errorf("elab: line %d: part select %s[%d:%d] out of range (width %d)", line, id.Name, t.hi, t.lo, w)
	}
	t.name, t.w = id.Name, w
	return t, nil
}

// splitTarget calls part once for each signal the assignment lhs = rhs
// writes, with the value that signal's bits take: a concatenation splits
// rhs MSB-first.
func (e *elaborator) splitTarget(lhs, rhs verilog.Expr, line int, part func(target, verilog.Expr) error) error {
	c, ok := lhs.(*verilog.Concat)
	if !ok {
		t, err := e.lvalue(lhs, line)
		if err != nil {
			return err
		}
		return part(t, rhs)
	}
	ts := make([]target, len(c.Parts))
	total := 0
	for i, p := range c.Parts {
		t, err := e.lvalue(p, line)
		if err != nil {
			return err
		}
		ts[i] = t
		total += t.hi - t.lo + 1
	}
	wide := &verilog.Cast{X: rhs, W: total}
	hi := total - 1
	for _, t := range ts {
		lo := hi - (t.hi - t.lo)
		if err := part(t, astSlice(wide, hi, lo, total)); err != nil {
			return err
		}
		hi = lo - 1
	}
	return nil
}

// expandPart returns the target signal's value after bits [hi:lo] take x:
// its current value with x in place of those bits.
func (e *elaborator) expandPart(t target, x verilog.Expr, st *state, nb, seq bool, line int) verilog.Expr {
	w := t.w
	old := e.curValue(t.name, st, nb, seq)
	if old == nil {
		e.warnf("line %d: partial assignment to %s before full assignment; unassigned bits read as 0", line, t.name)
		old = &verilog.Number{Value: 0, Width: w, Sized: true}
	}
	old = &verilog.Cast{X: old, W: w}
	var parts []verilog.Expr
	if t.hi < w-1 {
		parts = append(parts, astSlice(old, w-1, t.hi+1, w))
	}
	parts = append(parts, &verilog.Cast{X: x, W: t.hi - t.lo + 1})
	if t.lo > 0 {
		parts = append(parts, astSlice(old, t.lo-1, 0, w))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return &verilog.Concat{Parts: parts}
}

// execAssign stores each part of an assignment before it expands the next,
// so a concatenation that names one signal twice keeps both writes.
func (e *elaborator) execAssign(as *verilog.AssignStmt, st *state, seq bool) error {
	rhs, err := substReads(as.RHS, st.B)
	if err != nil {
		return err
	}
	nb := as.NonBlocking && seq
	vals := st.B
	if nb {
		vals = st.NB
	}
	return e.splitTarget(as.LHS, rhs, as.Line, func(t target, x verilog.Expr) error {
		if !t.whole {
			x = e.expandPart(t, x, st, nb, seq, as.Line)
		}
		vals[t.name] = x
		return nil
	})
}

// mergeStates folds a two-way branch into st: for each assigned target,
// value = cond ? then-value : else-value.
func (e *elaborator) mergeStates(cond verilog.Expr, st, thenSt, elseSt *state, seq bool) {
	mergeMap := func(base, t, f map[string]verilog.Expr, nb bool) {
		keys := map[string]bool{}
		for k := range t {
			keys[k] = true
		}
		for k := range f {
			keys[k] = true
		}
		for k := range keys {
			vt, vf := t[k], f[k]
			if vt == nil {
				vt = e.holdValue(k, base, nb, seq)
			}
			if vf == nil {
				vf = e.holdValue(k, base, nb, seq)
			}
			switch {
			case vt == nil && vf == nil:
				continue
			case vt == nil:
				vt = e.zeroFor(k)
			case vf == nil:
				vf = e.zeroFor(k)
			}
			if vt == vf {
				base[k] = vt
				continue
			}
			base[k] = &verilog.Ternary{Cond: cond, T: vt, F: vf}
		}
	}
	// NB merge must not look at B values of the branch states (separate
	// timing domains), but hold falls back to register output anyway.
	mergeMap(st.B, thenSt.B, elseSt.B, false)
	mergeMap(st.NB, thenSt.NB, elseSt.NB, true)
}

// holdValue is the value a target keeps when a branch does not assign it.
func (e *elaborator) holdValue(name string, base map[string]verilog.Expr, nb, seq bool) verilog.Expr {
	if v, ok := base[name]; ok && v != nil {
		return v
	}
	if seq {
		return &verilog.Ident{Name: name}
	}
	return nil
}

func (e *elaborator) zeroFor(name string) verilog.Expr {
	w, err := e.width(name)
	if err != nil {
		w = 1
	}
	e.warnf("signal %s not assigned on all paths of a combinational block; missing paths read as 0", name)
	return &verilog.Number{Value: 0, Width: w, Sized: true}
}

func (e *elaborator) execIf(v *verilog.IfStmt, st *state, seq bool) error {
	// Constant-folded conditions (e.g. the parser's bare begin/end wrapper).
	if c, err := evalConst(v.Cond); err == nil {
		if c != 0 {
			return e.execStmts(v.Then, st, seq)
		}
		return e.execStmts(v.Else, st, seq)
	}
	cond, err := substReads(v.Cond, st.B)
	if err != nil {
		return err
	}
	thenSt := st.clone()
	if err := e.execStmts(v.Then, thenSt, seq); err != nil {
		return err
	}
	elseSt := st.clone()
	if err := e.execStmts(v.Else, elseSt, seq); err != nil {
		return err
	}
	e.mergeStates(cond, st, thenSt, elseSt, seq)
	return nil
}

func (e *elaborator) execCase(v *verilog.CaseStmt, st *state, seq bool) error {
	subj, err := substReads(v.Subject, st.B)
	if err != nil {
		return err
	}
	// Find default arm.
	var defaultBody []verilog.Stmt
	var arms []verilog.CaseItem
	for _, it := range v.Items {
		if len(it.Match) == 0 {
			defaultBody = it.Body
			continue
		}
		arms = append(arms, it)
	}
	// Result of the chain starting from the default.
	resSt := st.clone()
	if defaultBody != nil {
		if err := e.execStmts(defaultBody, resSt, seq); err != nil {
			return err
		}
	}
	for i := len(arms) - 1; i >= 0; i-- {
		arm := arms[i]
		var cond verilog.Expr
		for _, m := range arm.Match {
			x, err := substReads(m, st.B)
			if err != nil {
				return err
			}
			eq := &verilog.Binary{Op: "==", L: subj, R: x}
			if cond == nil {
				cond = verilog.Expr(eq)
			} else {
				cond = &verilog.Binary{Op: "||", L: cond, R: eq}
			}
		}
		armSt := st.clone()
		if err := e.execStmts(arm.Body, armSt, seq); err != nil {
			return err
		}
		merged := st.clone()
		e.mergeStates(cond, merged, armSt, resSt, seq)
		resSt = merged
	}
	*st = *resSt
	return nil
}

// ---- Continuous assignments ----

func (e *elaborator) addContAssign(as *verilog.ContAssign) error {
	return e.splitTarget(as.LHS, as.RHS, as.Line, func(t target, x verilog.Expr) error {
		return e.addDriver(t, x, as.Line)
	})
}

func (e *elaborator) addDriver(t target, expr verilog.Expr, line int) error {
	if e.fm.byName[t.name].isInput {
		return fmt.Errorf("elab: line %d: assignment to input port %q", line, t.name)
	}
	if _, isReg := e.regD[t.name]; isReg {
		return fmt.Errorf("elab: line %d: signal %s driven by both register and assignment", line, t.name)
	}
	for _, pd := range e.drivers[t.name] {
		if t.lo <= pd.hi && pd.lo <= t.hi {
			return fmt.Errorf("elab: line %d: multiple drivers for %s bits [%d:%d]", line, t.name, t.hi, t.lo)
		}
	}
	e.drivers[t.name] = append(e.drivers[t.name], partDriver{hi: t.hi, lo: t.lo, expr: expr})
	return nil
}

// ---- Signal value construction ----

// drainRegs builds the D cones of all queued registers. Building a D cone
// may touch further registers, which re-queue; the loop runs until empty.
func (e *elaborator) drainRegs() error {
	for len(e.pendingRegs) > 0 {
		name := e.pendingRegs[0]
		e.pendingRegs = e.pendingRegs[1:]
		di := e.fm.byName[name]
		sid, _ := e.d.SignalID(name)
		dNode, err := e.buildResized(e.regD[name], di.width)
		if err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
		e.d.Regs = append(e.d.Regs, Reg{Sig: sid, Q: e.memo[name], D: dNode, Clock: e.regClk[name]})
	}
	return nil
}

// valueOf returns the word node driving the named signal.
func (e *elaborator) valueOf(name string) (NodeID, error) {
	if n, ok := e.memo[name]; ok {
		return n, nil
	}
	di, ok := e.fm.byName[name]
	if !ok {
		return InvalidNode, fmt.Errorf("elab: unknown signal %q", name)
	}
	sid, _ := e.d.SignalID(name)

	if _, isReg := e.regD[name]; isReg {
		q := e.d.add(Node{Kind: OpRegQ, Width: di.width, Sig: sid})
		e.memo[name] = q
		// Defer building the D cone: it runs in drainRegs, outside any
		// in-progress wire evaluation, so register crossings never look
		// like combinational loops.
		e.pendingRegs = append(e.pendingRegs, name)
		return q, nil
	}
	if di.isInput {
		n := e.d.add(Node{Kind: OpInput, Width: di.width, Sig: sid})
		e.memo[name] = n
		return n, nil
	}
	if e.building[name] {
		return InvalidNode, fmt.Errorf("elab: combinational loop through signal %s", name)
	}
	e.building[name] = true
	defer delete(e.building, name)

	drvs := e.drivers[name]
	if len(drvs) == 0 {
		e.warnf("signal %s has no driver; tied to 0", name)
		n := e.d.Constant(0, di.width)
		e.memo[name] = n
		return n, nil
	}
	var node NodeID
	if len(drvs) == 1 && drvs[0].lo == 0 && drvs[0].hi == di.width-1 {
		n, err := e.buildResized(drvs[0].expr, di.width)
		if err != nil {
			return InvalidNode, fmt.Errorf("signal %s: %w", name, err)
		}
		node = n
	} else {
		// Assemble from part drivers, MSB-first, filling gaps with 0.
		sorted := append([]partDriver(nil), drvs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].hi > sorted[j].hi })
		var parts []NodeID
		next := di.width - 1
		for _, pd := range sorted {
			if pd.hi < next {
				e.warnf("signal %s bits [%d:%d] undriven; tied to 0", name, next, pd.hi+1)
				parts = append(parts, e.d.Constant(0, next-pd.hi))
			}
			n, err := e.buildResized(pd.expr, pd.hi-pd.lo+1)
			if err != nil {
				return InvalidNode, fmt.Errorf("signal %s: %w", name, err)
			}
			parts = append(parts, n)
			next = pd.lo - 1
		}
		if next >= 0 {
			e.warnf("signal %s bits [%d:0] undriven; tied to 0", name, next)
			parts = append(parts, e.d.Constant(0, next+1))
		}
		if len(parts) == 1 {
			node = parts[0]
		} else {
			node = e.d.add(Node{Kind: OpConcat, Width: di.width, Args: parts})
		}
	}
	e.memo[name] = node
	return node, nil
}

// resize adapts a node to a target width (zero-extend or truncate).
func (e *elaborator) resize(n NodeID, w int) NodeID {
	nw := e.d.Nodes[n].Width
	switch {
	case nw == w:
		return n
	case nw > w:
		return e.d.add(Node{Kind: OpSlice, Width: w, Args: []NodeID{n}, Lo: 0})
	default:
		z := e.d.Constant(0, w-nw)
		return e.d.add(Node{Kind: OpConcat, Width: w, Args: []NodeID{z, n}})
	}
}

func (e *elaborator) buildResized(x verilog.Expr, w int) (NodeID, error) {
	n, err := e.build(x, w)
	if err != nil {
		return InvalidNode, err
	}
	return e.resize(n, w), nil
}

// bool1 converts a node to a 1-bit truth value (OR-reduction).
func (e *elaborator) bool1(n NodeID) NodeID {
	if e.d.Nodes[n].Width == 1 {
		return n
	}
	return e.d.add(Node{Kind: OpRedOr, Width: 1, Args: []NodeID{n}})
}

// build constructs the word node for expression x. ctx is the context
// width: width-transparent operators (arithmetic, bitwise, mux) are
// evaluated at max(self width, ctx) so that, e.g., a 5-bit assignment of a
// 4-bit addition keeps the carry, matching Verilog semantics.
// Self-determined contexts pass ctx = 0.
func (e *elaborator) build(x verilog.Expr, ctx int) (NodeID, error) {
	if e.depth == verilog.MaxNesting {
		return InvalidNode, fmt.Errorf("elab: expression nested deeper than %d levels", verilog.MaxNesting)
	}
	e.calls++
	e.depth++
	defer func() { e.depth-- }()
	switch v := x.(type) {
	case *verilog.Number:
		w := v.Width
		if w <= 0 {
			w = 32
		}
		if ctx > w {
			w = ctx
		}
		return e.d.Constant(v.Value, w), nil
	case *verilog.Ident:
		return e.valueOf(v.Name)
	}
	// Names and numbers need no memo: valueOf memoizes the one and the
	// design's structural hash the other. Hashing also makes a rebuilt
	// composite the same node, so the memo only saves the walk.
	key := builtKey{x, ctx}
	if n, ok := e.built[key]; ok {
		return n, nil
	}
	calls := e.calls
	n, err := e.buildOp(x, ctx)
	if err != nil {
		return InvalidNode, err
	}
	if e.calls-calls > 2 {
		e.built[key] = n
	}
	return n, nil
}

// buildOp constructs the word node for a composite expression.
func (e *elaborator) buildOp(x verilog.Expr, ctx int) (NodeID, error) {
	switch v := x.(type) {
	case *verilog.Unary:
		uctx := ctx
		if v.Op != "~" && v.Op != "-" {
			uctx = 0 // reductions and ! are self-determined
		}
		in, err := e.build(v.X, uctx)
		if err != nil {
			return InvalidNode, err
		}
		w := e.d.Nodes[in].Width
		switch v.Op {
		case "~":
			return e.d.add(Node{Kind: OpNot, Width: w, Args: []NodeID{in}}), nil
		case "-":
			return e.d.add(Node{Kind: OpNeg, Width: w, Args: []NodeID{in}}), nil
		case "!":
			return e.d.add(Node{Kind: OpLNot, Width: 1, Args: []NodeID{e.bool1(in)}}), nil
		case "&":
			return e.d.add(Node{Kind: OpRedAnd, Width: 1, Args: []NodeID{in}}), nil
		case "|":
			return e.d.add(Node{Kind: OpRedOr, Width: 1, Args: []NodeID{in}}), nil
		case "^":
			return e.d.add(Node{Kind: OpRedXor, Width: 1, Args: []NodeID{in}}), nil
		case "~&":
			r := e.d.add(Node{Kind: OpRedAnd, Width: 1, Args: []NodeID{in}})
			return e.d.add(Node{Kind: OpNot, Width: 1, Args: []NodeID{r}}), nil
		case "~|":
			r := e.d.add(Node{Kind: OpRedOr, Width: 1, Args: []NodeID{in}})
			return e.d.add(Node{Kind: OpNot, Width: 1, Args: []NodeID{r}}), nil
		case "~^":
			r := e.d.add(Node{Kind: OpRedXor, Width: 1, Args: []NodeID{in}})
			return e.d.add(Node{Kind: OpNot, Width: 1, Args: []NodeID{r}}), nil
		}
		return InvalidNode, fmt.Errorf("elab: unsupported unary %q", v.Op)
	case *verilog.Binary:
		return e.buildBinary(v, ctx)
	case *verilog.Ternary:
		c, err := e.build(v.Cond, 0)
		if err != nil {
			return InvalidNode, err
		}
		t, err := e.build(v.T, ctx)
		if err != nil {
			return InvalidNode, err
		}
		f, err := e.build(v.F, ctx)
		if err != nil {
			return InvalidNode, err
		}
		w := max(e.d.Nodes[t].Width, e.d.Nodes[f].Width)
		return e.d.add(Node{Kind: OpMux, Width: w,
			Args: []NodeID{e.bool1(c), e.resize(t, w), e.resize(f, w)}}), nil
	case *verilog.Index:
		in, err := e.build(v.X, 0)
		if err != nil {
			return InvalidNode, err
		}
		if idx, err := evalConst(v.Idx); err == nil {
			w := e.d.Nodes[in].Width
			if int(idx) >= w || idx < 0 {
				return InvalidNode, fmt.Errorf("elab: bit select [%d] out of range (width %d)", idx, w)
			}
			return e.d.add(Node{Kind: OpSlice, Width: 1, Args: []NodeID{in}, Lo: int(idx)}), nil
		}
		// Variable index: shift right then take bit 0.
		idxN, err := e.build(v.Idx, 0)
		if err != nil {
			return InvalidNode, err
		}
		w := e.d.Nodes[in].Width
		sh := e.d.add(Node{Kind: OpShr, Width: w, Args: []NodeID{in, idxN}})
		return e.d.add(Node{Kind: OpSlice, Width: 1, Args: []NodeID{sh}, Lo: 0}), nil
	case *verilog.Range:
		in, err := e.build(v.X, 0)
		if err != nil {
			return InvalidNode, err
		}
		hi, lo, err := constRange(v.Hi, v.Lo)
		if err != nil {
			return InvalidNode, fmt.Errorf("elab: non-constant part select: %w", err)
		}
		w := e.d.Nodes[in].Width
		if int(hi) >= w || lo < 0 {
			return InvalidNode, fmt.Errorf("elab: part select [%d:%d] out of range (width %d)", hi, lo, w)
		}
		return e.d.add(Node{Kind: OpSlice, Width: int(hi - lo + 1), Args: []NodeID{in}, Lo: int(lo)}), nil
	case *verilog.Concat:
		var args []NodeID
		w := 0
		for _, p := range v.Parts {
			n, err := e.build(p, 0)
			if err != nil {
				return InvalidNode, err
			}
			args = append(args, n)
			w += e.d.Nodes[n].Width
		}
		if len(args) == 1 {
			return args[0], nil
		}
		return e.d.add(Node{Kind: OpConcat, Width: w, Args: args}), nil
	case *verilog.Repl:
		cnt, err := evalConst(v.Count)
		if err != nil {
			return InvalidNode, fmt.Errorf("elab: non-constant replication count: %w", err)
		}
		if cnt <= 0 || cnt > 64 {
			return InvalidNode, fmt.Errorf("elab: replication count %d out of range", cnt)
		}
		n, err := e.build(v.X, 0)
		if err != nil {
			return InvalidNode, err
		}
		if w := int64(e.d.Nodes[n].Width); w*cnt > math.MaxInt32 {
			return InvalidNode, fmt.Errorf("elab: replication of %d x %d bits is too wide", cnt, w)
		}
		args := make([]NodeID, cnt)
		for i := range args {
			args[i] = n
		}
		if cnt == 1 {
			return n, nil
		}
		return e.d.add(Node{Kind: OpConcat, Width: int(cnt) * e.d.Nodes[n].Width, Args: args}), nil
	case *verilog.Cast:
		return e.buildResized(v.X, v.W)
	default:
		return InvalidNode, fmt.Errorf("elab: unsupported expression %T", x)
	}
}

var binOpKinds = map[string]OpKind{
	"&": OpAnd, "|": OpOr, "^": OpXor, "~^": OpXnor,
	"+": OpAdd, "-": OpSub, "*": OpMul,
	"==": OpEq, "!=": OpNeq, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (e *elaborator) buildBinary(v *verilog.Binary, ctx int) (NodeID, error) {
	opctx := ctx
	switch v.Op {
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		opctx = 0 // operands are self-determined relative to each other
	}
	l, err := e.build(v.L, opctx)
	if err != nil {
		return InvalidNode, err
	}
	rctx := opctx
	if v.Op == "<<" || v.Op == ">>" {
		rctx = 0 // shift amount is self-determined
	}
	r, err := e.build(v.R, rctx)
	if err != nil {
		return InvalidNode, err
	}
	lw, rw := e.d.Nodes[l].Width, e.d.Nodes[r].Width
	switch v.Op {
	case "&", "|", "^", "~^", "+", "-", "*":
		w := max(lw, rw)
		if ctx > w {
			w = ctx
		}
		return e.d.add(Node{Kind: binOpKinds[v.Op], Width: w,
			Args: []NodeID{e.resize(l, w), e.resize(r, w)}}), nil
	case "==", "!=", "<", "<=", ">", ">=":
		w := max(lw, rw)
		return e.d.add(Node{Kind: binOpKinds[v.Op], Width: 1,
			Args: []NodeID{e.resize(l, w), e.resize(r, w)}}), nil
	case "&&":
		return e.d.add(Node{Kind: OpLAnd, Width: 1, Args: []NodeID{e.bool1(l), e.bool1(r)}}), nil
	case "||":
		return e.d.add(Node{Kind: OpLOr, Width: 1, Args: []NodeID{e.bool1(l), e.bool1(r)}}), nil
	case "<<", ">>":
		kind := OpShl
		if v.Op == ">>" {
			kind = OpShr
		}
		return e.d.add(Node{Kind: kind, Width: lw, Args: []NodeID{l, r}}), nil
	case "/", "%":
		// Only powers of two are synthesizable in this subset.
		rc, cerr := e.constValue(r)
		if cerr != nil || rc == 0 || rc&(rc-1) != 0 {
			return InvalidNode, fmt.Errorf("elab: %q only supported with constant power-of-two divisor", v.Op)
		}
		shift := 0
		for m := rc; m > 1; m >>= 1 {
			shift++
		}
		if v.Op == "/" {
			sh := e.d.Constant(uint64(shift), 32)
			return e.d.add(Node{Kind: OpShr, Width: lw, Args: []NodeID{l, sh}}), nil
		}
		mask := e.d.Constant(rc-1, lw)
		return e.d.add(Node{Kind: OpAnd, Width: lw, Args: []NodeID{l, mask}}), nil
	default:
		return InvalidNode, fmt.Errorf("elab: unsupported binary %q", v.Op)
	}
}

// constValue extracts a constant node's value.
func (e *elaborator) constValue(n NodeID) (uint64, error) {
	nd := e.d.Nodes[n]
	if nd.Kind != OpConst {
		return 0, fmt.Errorf("elab: expected constant")
	}
	return nd.Const, nil
}
