// Package driver runs rtllint analyzers over type-checked packages and
// applies the lint.allow suppression mechanism. Suppression is a driver
// concern, not an analyzer concern: every analyzer just reports, and the
// driver drops diagnostics whose (analyzer, file, enclosing function)
// triple appears in the nearest lint.allow file above the diagnosed file.
// That keeps the sanctioned-violation surface uniform across all checks
// and auditable in one place.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rtltimer/internal/lint/allow"
	"rtltimer/internal/lint/analysis"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one unsuppressed diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Func     string // innermost enclosing function declaration
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Runner caches lint.allow lookups across packages so that a whole-module
// run can report unused allowlist entries at the end.
type Runner struct {
	// lists caches directory -> nearest allowlist (nil if none found).
	lists map[string]*allow.List
}

// New returns a Runner with an empty allowlist cache.
func New() *Runner { return &Runner{lists: map[string]*allow.List{}} }

// Run applies every analyzer to every package, returning the findings that
// survive lint.allow filtering, sorted by position. Analyzer errors (for
// example a malformed lint.allow) abort the run.
func (r *Runner) Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			var reportErr error
			pass.Report = func(d analysis.Diagnostic) {
				f, err := r.filter(pkg, a.Name, d)
				if err != nil {
					if reportErr == nil {
						reportErr = err
					}
					return
				}
				if f != nil {
					findings = append(findings, *f)
				}
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Types.Path(), a.Name, err)
			}
			if reportErr != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Types.Path(), a.Name, reportErr)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// Unused returns the allowlist entries loaded during Run that never
// suppressed a diagnostic, keyed by allowlist path. Meaningful only for
// whole-module runs, as cmd/rtllint and the rtllint self-test make: a run
// over some packages sees only their diagnostics, so absence of a match
// proves nothing.
func (r *Runner) Unused() map[string][]*allow.Entry {
	out := map[string][]*allow.Entry{}
	seen := map[string]bool{}
	for _, l := range r.lists {
		if l == nil || seen[l.Path] {
			continue
		}
		seen[l.Path] = true
		if u := l.Unused(); len(u) > 0 {
			out[l.Path] = u
		}
	}
	return out
}

// filter resolves d against the nearest lint.allow, returning nil if the
// diagnostic is suppressed.
func (r *Runner) filter(pkg *Package, analyzer string, d analysis.Diagnostic) (*Finding, error) {
	pos := pkg.Fset.Position(d.Pos)
	fn := enclosingFunc(pkg, d.Pos)
	list, err := r.nearestAllow(filepath.Dir(pos.Filename))
	if err != nil {
		return nil, err
	}
	if list != nil {
		rel, rerr := filepath.Rel(filepath.Dir(list.Path), pos.Filename)
		if rerr == nil && list.Match(analyzer, filepath.ToSlash(rel), fn) {
			return nil, nil
		}
	}
	return &Finding{Analyzer: analyzer, Pos: pos, Func: fn, Message: d.Message}, nil
}

// nearestAllow walks from dir toward the filesystem root looking for a
// lint.allow file, caching every directory visited.
func (r *Runner) nearestAllow(dir string) (*allow.List, error) {
	if l, ok := r.lists[dir]; ok {
		return l, nil
	}
	var walked []string
	cur := dir
	for {
		if l, ok := r.lists[cur]; ok {
			for _, w := range walked {
				r.lists[w] = l
			}
			return l, nil
		}
		walked = append(walked, cur)
		path := filepath.Join(cur, "lint.allow")
		if _, err := os.Stat(path); err == nil {
			l, perr := allow.Parse(path)
			if perr != nil {
				return nil, perr
			}
			for _, w := range walked {
				r.lists[w] = l
			}
			return l, nil
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			for _, w := range walked {
				r.lists[w] = nil
			}
			return nil, nil
		}
		cur = parent
	}
}

// enclosingFunc names the innermost function declaration containing pos:
// `Name` for functions, `(Recv).Name` / `(*Recv).Name` for methods, and
// `<global>` for sites outside any declaration (package-level variable
// initializers). Sites inside function literals are attributed to the
// enclosing declaration, which is what a lint.allow entry names.
func enclosingFunc(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			return FuncName(fd)
		}
	}
	return "<global>"
}

// FuncName renders a FuncDecl the way lint.allow spells it.
func FuncName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return fmt.Sprintf("(%s).%s", typeExprString(fd.Recv.List[0].Type), fd.Name.Name)
}

func typeExprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeExprString(t.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return typeExprString(t.X)
	case *ast.IndexListExpr:
		return typeExprString(t.X)
	case *ast.ParenExpr:
		return typeExprString(t.X)
	default:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%T", e)
		return sb.String()
	}
}
