// Package analysis is a deliberately small, dependency-free shadow of
// golang.org/x/tools/go/analysis: just enough structure to write the
// repo's invariant analyzers against a stable API without pulling an
// external module into a tree that is otherwise stdlib-only. The shapes
// (Analyzer, Pass, Diagnostic) match the x/tools API closely enough
// that migrating onto the real framework later is a mechanical rename.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the sbwlint
	// command line. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `sbwlint -help`.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// PkgPath is the package's import path ("smallbandwidth/internal/core").
	// Analyzers scope themselves by this path.
	PkgPath string
	Fset    *token.FileSet
	// Files holds the package's non-test source files, parsed with
	// comments.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver fills it in.
	Report func(Diagnostic)

	directives map[*ast.File]*FileDirectives
}

// Reportf formats and reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
