// Package kit is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis pattern: analyzers receive a type-checked
// package (a Pass) and report position-anchored diagnostics. The toolchain
// bakes in no external modules, so the loader (load.go) shells out to
// `go list -export` and type-checks from source against gc export data —
// the same mechanism go/packages uses — with nothing but the standard
// library.
//
// Two comment directives thread through every analyzer:
//
//	//kmvet:ignore <justification>
//	    suppresses any kmvet diagnostic reported on the same line or the
//	    line below. The justification string is mandatory: an ignore with
//	    no reason is itself a diagnostic. Waivers are collected so the
//	    driver can list every accepted suppression with its reason.
//
//	//km:<word>
//	    marks a declaration for a specific analyzer: //km:hotpath on a
//	    function (hotalloc), //km:exhaustive on a constant-set type
//	    (frameswitch), //km:roundpure anywhere in a package (roundpurity).
package kit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// MarkedTypes maps "pkgpath.TypeName" to the //km: directive word on
	// that type's declaration, collected across every package loaded from
	// source in this run (directives are invisible in export data, so the
	// corpus shares them the way x/tools shares facts).
	MarkedTypes map[string]string

	// PkgDirectives holds package-level //km: directive words found in any
	// file of this package (e.g. "roundpure").
	PkgDirectives map[string]bool

	// Corpus is the whole run, for a whole-program analyzer; it may report
	// at any position in Corpus.Fset.
	Corpus *Corpus

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Waiver is a diagnostic suppressed by a justified //kmvet:ignore.
type Waiver struct {
	Diagnostic
	Reason string
}

// ignoreDirective is one //kmvet:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	reason string
	used   bool
}

// RunAnalyzers applies every analyzer to every source-loaded package of
// the corpus, resolves //kmvet:ignore suppressions, and returns surviving
// diagnostics (sorted by position) plus the accepted waivers.
func RunAnalyzers(c *Corpus, analyzers []*Analyzer) ([]Diagnostic, []Waiver, error) {
	var raw []Diagnostic
	for _, pkg := range c.Pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:      a,
				Fset:          c.Fset,
				Files:         pkg.Files,
				Pkg:           pkg.Types,
				TypesInfo:     pkg.Info,
				MarkedTypes:   c.MarkedTypes,
				PkgDirectives: pkg.Directives,
				Corpus:        c,
				diags:         &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}

	var kept []Diagnostic
	var waived []Waiver
	for _, d := range raw {
		if ig := c.ignoreFor(d.Pos); ig != nil && ig.reason != "" {
			ig.used = true
			waived = append(waived, Waiver{Diagnostic: d, Reason: ig.reason})
			continue
		}
		kept = append(kept, d)
	}
	// An ignore without a justification is never honored — and is itself
	// reported, whether or not a diagnostic landed on it.
	for _, file := range sortedKeys(c.ignores) {
		for _, line := range sortedIntKeys(c.ignores[file]) {
			ig := c.ignores[file][line]
			if ig.reason == "" {
				kept = append(kept, Diagnostic{
					Pos:      ig.pos,
					Analyzer: "kmvet",
					Message:  "//kmvet:ignore requires a justification (\"//kmvet:ignore <reason>\")",
				})
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool { return posLess(kept[i].Pos, kept[j].Pos) })
	sort.Slice(waived, func(i, j int) bool { return posLess(waived[i].Pos, waived[j].Pos) })
	return kept, waived, nil
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// ignoreFor finds a //kmvet:ignore directive covering a diagnostic: on the
// diagnostic's own line (trailing comment) or on the line directly above.
func (c *Corpus) ignoreFor(pos token.Position) *ignoreDirective {
	byLine := c.ignores[pos.Filename]
	if byLine == nil {
		return nil
	}
	if ig, ok := byLine[pos.Line]; ok {
		return ig
	}
	if ig, ok := byLine[pos.Line-1]; ok {
		return ig
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedIntKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// --- directive helpers shared by analyzers ---

const (
	ignorePrefix   = "//kmvet:ignore"
	markPrefix     = "//km:"
	HotpathMark    = "hotpath"
	ExhaustiveMark = "exhaustive"
	RoundPureMark  = "roundpure"
)

// HasMark reports whether a doc comment group carries the given //km:
// directive word.
func HasMark(doc *ast.CommentGroup, word string) bool {
	if doc == nil {
		return false
	}
	for _, cm := range doc.List {
		if markWord(cm.Text) == word {
			return true
		}
	}
	return false
}

// markWord extracts the directive word of a //km: comment ("" otherwise).
func markWord(text string) string {
	if !strings.HasPrefix(text, markPrefix) {
		return ""
	}
	rest := strings.TrimPrefix(text, markPrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return strings.TrimSpace(rest)
}

// collectFileDirectives indexes a parsed file's //kmvet:ignore comments
// (into c.ignores), package-level //km: words, and //km: marks on type
// declarations.
func (c *Corpus) collectFileDirectives(pkg *LoadedPackage, f *ast.File) {
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			text := cm.Text
			switch {
			case strings.HasPrefix(text, ignorePrefix):
				pos := c.Fset.Position(cm.Pos())
				byLine := c.ignores[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*ignoreDirective)
					c.ignores[pos.Filename] = byLine
				}
				reason := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				byLine[pos.Line] = &ignoreDirective{pos: pos, reason: reason}
			case markWord(text) != "":
				// Package-level directive: a //km: word attached to no type
				// declaration applies to the whole package (e.g. roundpure).
				pkg.Directives[markWord(text)] = true
			}
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
				if doc == nil {
					continue
				}
				for _, cm := range doc.List {
					if w := markWord(cm.Text); w != "" {
						c.MarkedTypes[pkg.ImportPath+"."+ts.Name.Name] = w
					}
				}
			}
		}
	}
}
