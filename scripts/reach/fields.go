package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// fields type-checks each package of src whose import path starts with
// prefix, taking what it imports from imp, and returns every unexported,
// named struct field the package declares, mapped to its file:line, and the
// set of those that its non-test code reads. A field is named
// module/dir.Owner.f: Owner is the type the struct is declared as, else the
// variable or function that holds it, and a struct nested in a field is
// owned by Owner.f. Only non-test files are type-checked, so a read in a
// _test.go file does not count.
//
// A read is any use of the field other than as the whole target of an
// assignment (=, :=, op-assign) or of ++/--, or as a composite-literal key:
// x.f += 1 and x.f++ are writes, while x.f.g = 1, x.f[i] = 1 and &x.f read
// f. Exported fields are out of scope, as encoding/json reads them by
// reflection; embedded fields too, as they lend the struct their methods.
// Nor can the pass see a field compared or hashed with its whole struct, as
// a map key is: such a field needs an allow-list line.
func fields(src *source, prefix string, imp types.Importer) (decls map[string]string, read map[string]bool, err error) {
	decls, read = map[string]string{}, map[string]bool{}
	for pkg, files := range src.pkgs {
		if !strings.HasPrefix(pkg, prefix) {
			continue
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(pkg, src.fset, files, info); err != nil {
			return nil, nil, err
		}
		names := map[types.Object]string{}
		for _, f := range files {
			for _, d := range f.Decls {
				owner := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					owner = strings.TrimPrefix(symbol("", fd), ".")
				}
				declare(d, owner, func(name string, id *ast.Ident) {
					if !id.IsExported() {
						names[info.Defs[id]] = pkg + "." + name
						decls[pkg+"."+name] = src.pos(id)
					}
				})
			}
		}
		for _, f := range files {
			writes := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						writes[ast.Unparen(l)] = true
					}
				case *ast.IncDecStmt:
					writes[ast.Unparen(n.X)] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || writes[sel] {
					return true
				}
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					if name := names[s.Obj().(*types.Var).Origin()]; name != "" {
						read[name] = true
					}
				}
				return true
			})
		}
	}
	return decls, read, nil
}

// declare calls add with the name and identifier of every named field of
// every struct type in n, owned as fields describes: owner is n's
// enclosing function, and a type or variable declared in n owns what it
// holds.
func declare(n ast.Node, owner string, add func(name string, id *ast.Ident)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			declare(n.Type, n.Name.Name, add)
			return false
		case *ast.ValueSpec:
			for _, e := range append([]ast.Expr{n.Type}, n.Values...) {
				if e != nil {
					declare(e, n.Names[0].Name, add)
				}
			}
			return false
		case *ast.StructType:
			for _, f := range n.Fields.List {
				for _, id := range f.Names {
					add(owner+"."+id.Name, id)
					declare(f.Type, owner+"."+id.Name, add)
				}
			}
			return false
		}
		return true
	})
}

// exports is an importer of the packages that patterns name and their
// dependencies, reading the export data `go list -export -deps` builds.
func exports(fset *token.FileSet, patterns ...string) (types.Importer, error) {
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, patterns...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	files := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if pkg, file, ok := strings.Cut(line, "="); ok && file != "" {
			files[pkg] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(pkg string) (io.ReadCloser, error) {
		if files[pkg] == "" {
			return nil, fmt.Errorf("no export data for %s", pkg)
		}
		return os.Open(files[pkg])
	}), nil
}
