// Package dead reports an exported declaration with no reference outside
// its package's tests, and an untagged exported field of an exported struct
// that no literal key, assignment, ++/-- or & writes (a knob nobody sets;
// a value-receiver method such as withDefaults writes a copy). References
// come from the corpus, the bench/ module, and their _test.go files, parsed
// untyped. Package main, the root package (the API), the methods of types
// it aliases and methods an interface names are exempt.
package dead

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strconv"

	"kmgraph/internal/analysis/kit"
)

var Analyzer = &kit.Analyzer{
	Name: "dead",
	Doc:  "reports exported declarations nothing outside their package's tests refers to, and untagged exported fields nothing writes",
	Run:  run,
}

// key is a name a test file selects or writes: pkg "" is a bare name, and
// name "" every field of typ.
type key struct{ pkg, typ, name string }

type index struct {
	used, written map[string]bool   // by decl, from package files
	tests         map[key]string    // selected in a test file -> its directory, "*" for several
	testWrites    map[key]bool      // fields a test file writes
	pkgOf         map[string]string // directory -> import path
}

// decl names a declaration alike in every type-checking universe: export
// data keeps its file and line, not its column.
func decl(fset *token.FileSet, obj types.Object) string {
	p := fset.Position(obj.Pos())
	return fmt.Sprintf("%s:%d:%s", p.Filename, p.Line, obj.Name())
}

// run indexes the whole program once, on the corpus's first package, and
// reports only over a corpus that holds the module's root package.
func run(pass *kit.Pass) error {
	c := pass.Corpus
	if pass.Pkg != c.Pkgs[0].Types {
		return nil
	}
	root := c.Pkgs[0].Dir
	for !pathExists(filepath.Join(root, "go.mod")) {
		root = filepath.Dir(root)
	}
	corpora := []*kit.Corpus{c}
	if bench := filepath.Join(root, "bench"); pathExists(filepath.Join(bench, "go.mod")) {
		bc, err := kit.Load(bench, []string{"./..."})
		if err != nil {
			return err
		}
		corpora = append(corpora, bc)
	}
	x := &index{map[string]bool{}, map[string]bool{}, map[key]string{}, map[key]bool{}, map[string]string{}}
	for _, cc := range corpora {
		for _, p := range cc.Pkgs {
			x.pkgOf[p.Dir] = p.ImportPath
			for _, f := range p.Files {
				x.add(f, p.Info, cc.Fset, p.Dir)
			}
		}
	}
	for dir := range x.pkgOf {
		tests, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, name := range tests {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				return err
			}
			x.add(f, nil, nil, dir)
		}
	}
	if x.pkgOf[root] != "" {
		x.report(pass, root)
	}
	return nil
}

func pathExists(path string) bool { _, err := os.Stat(path); return err == nil }

func ident(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// writes calls fn on each selector n writes: x.a.b[i] = v writes b and a.
func writes(n ast.Node, fn func(*ast.SelectorExpr)) {
	var lhs []ast.Expr
	if as, ok := n.(*ast.AssignStmt); ok {
		lhs = as.Lhs
	} else if inc, ok := n.(*ast.IncDecStmt); ok {
		lhs = []ast.Expr{inc.X}
	} else if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
		lhs = []ast.Expr{u.X}
	}
	for len(lhs) > 0 {
		switch e := lhs[0].(type) {
		case *ast.IndexExpr:
			lhs = append(lhs[1:], e.X)
		case *ast.SelectorExpr:
			fn(e)
			lhs = append(lhs[1:], e.X)
		default:
			lhs = lhs[1:]
		}
	}
}

// add indexes a file. A package file (info non-nil) resolves its references
// and writes to their declarations; a test file's resolve by name, or by
// package or by the literal's type where it names one.
func (x *index) add(f *ast.File, info *types.Info, fset *token.FileSet, dir string) {
	imports := map[string]string{}
	for _, is := range f.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		if imports[path.Base(p)] = p; is.Name != nil {
			imports[is.Name.Name] = p
		}
	}
	for _, d := range f.Decls {
		fd, _ := d.(*ast.FuncDecl)
		valueMethod := fd != nil && fd.Recv != nil && ident(fd.Recv.List[0].Type) != nil
		ast.Inspect(d, func(n ast.Node) bool {
			writes(n, func(s *ast.SelectorExpr) {
				if info == nil {
					x.testWrites[key{name: s.Sel.Name}] = true
				} else if sel := info.Selections[s]; sel != nil && sel.Kind() == types.FieldVal && !valueMethod {
					x.written[decl(fset, sel.Obj())] = true
				}
			})
			switch n := n.(type) {
			case *ast.Ident:
				if info != nil && info.Uses[n] != nil {
					x.used[decl(fset, info.Uses[n])] = true
				}
			case *ast.SelectorExpr:
				k := key{pkg: imports[ident(n.X).String()], name: n.Sel.Name}
				if info == nil && x.tests[k] == "" {
					x.tests[k] = dir
				} else if info == nil && x.tests[k] != dir {
					x.tests[k] = "*"
				}
			case *ast.CompositeLit:
				typ := key{} // an elided type: bare field names
				if id := ident(n.Type); id != nil {
					typ = key{pkg: x.pkgOf[dir], typ: id.Name}
				} else if s, ok := n.Type.(*ast.SelectorExpr); ok {
					typ = key{pkg: imports[ident(s.X).String()], typ: s.Sel.Name}
				}
				for i, el := range n.Elts {
					kv, keyed := el.(*ast.KeyValueExpr)
					if info == nil && keyed {
						x.testWrites[key{typ.pkg, typ.typ, ident(kv.Key).String()}] = true
					} else if info == nil {
						x.testWrites[typ] = true
					} else if keyed && info.Uses[ident(kv.Key)] != nil {
						x.written[decl(fset, info.Uses[ident(kv.Key)])] = true
					} else if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok && !keyed {
						x.written[decl(fset, st.Field(i))] = true
					}
				}
			}
			return true
		})
	}
}

func (x *index) report(pass *kit.Pass, root string) {
	// Package errors calls the first three through interfaces it does not export.
	ifaced := map[string]bool{"Unwrap": true, "Is": true, "As": true, "Error": true}
	exempt := map[string]bool{}
	for _, p := range pass.Corpus.Pkgs {
		for _, q := range append([]*types.Package{p.Types}, p.Types.Imports()...) {
			for _, name := range q.Scope().Names() {
				t := q.Scope().Lookup(name).Type()
				if it, ok := t.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaced[it.Method(i).Name()] = true
					}
				}
				if n, ok := types.Unalias(t).(*types.Named); ok && q == p.Types && p.Dir == root {
					exempt[decl(pass.Fset, n.Obj())] = true
				}
			}
		}
	}
	for _, p := range pass.Corpus.Pkgs {
		if p.Dir == root || p.Types.Name() == "main" {
			continue
		}
		check := func(obj types.Object, inTests key) {
			if d := x.tests[inTests]; obj.Exported() && (d == "" || d == p.Dir) && !x.used[decl(pass.Fset, obj)] {
				pass.Reportf(obj.Pos(), "exported %s has no reference outside its package's tests", obj.Name())
			}
		}
		for _, name := range p.Types.Scope().Names() {
			obj := p.Types.Scope().Lookup(name)
			check(obj, key{pkg: p.ImportPath, name: name})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods() && !exempt[decl(pass.Fset, tn)]; i++ {
				if !ifaced[n.Method(i).Name()] {
					check(n.Method(i), key{name: n.Method(i).Name()})
				}
			}
			st, _ := n.Underlying().(*types.Struct)
			for i := 0; st != nil && tn.Exported() && i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && st.Tag(i) == "" && !x.written[decl(pass.Fset, f)] && !x.testWrites[key{name: f.Name()}] &&
					!x.testWrites[key{p.ImportPath, name, f.Name()}] && !x.testWrites[key{p.ImportPath, name, ""}] {
					pass.Reportf(f.Pos(), "field %s.%s is never written: a knob nobody sets", name, f.Name())
				}
			}
		}
	}
}
