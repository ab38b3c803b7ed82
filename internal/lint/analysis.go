package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The shape deliberately
// mirrors golang.org/x/tools/go/analysis so the checkers port
// mechanically if that dependency becomes available (see doc.go).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and escape hatches.
	Name string
	// Doc is the one-paragraph rationale shown by `repolint -help`.
	Doc string
	// Packages restricts which packages the analyzer inspects. Each
	// entry is an import-path suffix matched on segment boundaries
	// ("sched" matches "repro/internal/sched"; "internal/sched" works
	// too). Nil means every package.
	Packages []string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// AppliesTo reports whether the analyzer inspects the package with the
// given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, pat := range a.Packages {
		if matchPathSuffix(path, pat) {
			return true
		}
	}
	return false
}

// matchPathSuffix reports whether pat equals path or a trailing run of
// its slash-separated segments.
func matchPathSuffix(path, pat string) bool {
	return path == pat || strings.HasSuffix(path, "/"+pat)
}

// A Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the position table shared by every file in the run.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// TypesInfo returns the package's type-check results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Exempt reports whether pos sits on (or directly under) a line carrying
// the given //lint:<tag> escape-hatch comment. The comment may trail the
// flagged line or occupy the line above it; a bare tag with no reason is
// accepted but discouraged.
func (p *Pass) Exempt(pos token.Pos, tag string) bool {
	f := p.Pkg.fileFor(pos)
	if f == nil {
		return false
	}
	line := p.Fset().Position(pos).Line
	tags := p.Pkg.escapeLines(p.Fset(), f)
	return tags[line] == tag || tags[line-1] == tag
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Run applies every applicable analyzer to every package and returns
// the findings ordered by file position.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
	}
	return diags, nil
}

// exprString renders an expression compactly for matching and messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, e)
	return buf.String()
}

// pathTo returns the chain of AST nodes from the file root down to (and
// including) target, or nil if target is not in f.
func pathTo(f *ast.File, target ast.Node) []ast.Node {
	var stack, path []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if path != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			path = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return path
}

// deref unwraps pointers and returns the named type beneath, or nil.
func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
