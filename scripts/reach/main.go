// Command reach lists the funcs and methods of non-test Go under internal/
// and cmd/ that no given binary links, and the unexported fields under
// internal/ that no non-test code reads, and fails on each one that the
// allow-list does not name with a reason. scripts/check_reach.sh builds the
// shipped binaries with inlining off, so that a function inlined at every
// call still has a symbol, and runs it from the module root:
//
//	go run ./scripts/reach ALLOW PKG=NM...
//
// Each PKG=NM names a binary's main package and its `go tool nm` listing:
// the binary's own symbols are main.X there, and stand for PKG.X. A symbol
// of a generic function or of a method of a generic type carries its type
// arguments, nested brackets and all
// (routing.room[go.shape.[]float64,go.shape.float64]); every bracketed
// group is cut before matching, so a declaration matches any instance.
//
// A second pass, which the linker cannot do, type-checks the non-test Go of
// each package under internal/ against the export data that `go list
// -export -deps` builds, and fails on each unexported struct field that no
// non-test code of its package reads, unless the allow-list names it (see
// fields).
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// source is the parsed non-test Go that the default build compiles under
// some directories of a module, by package import path.
type source struct {
	root string
	fset *token.FileSet
	pkgs map[string][]*ast.File
}

// parse reads the non-test Go files under each root/dir that the default
// build compiles, leaving out testdata and the directory skip; module is the
// import path of root.
func parse(root, module, skip string, dirs ...string) (*source, error) {
	src := &source{root: root, fset: token.NewFileSet(), pkgs: map[string][]*ast.File{}}
	walk := func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if e.IsDir() && (rel == skip || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || strings.HasSuffix(p, "_test.go") || !strings.HasSuffix(p, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), e.Name()); !ok {
			return err
		}
		f, err := parser.ParseFile(src.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + path.Dir(rel)
		src.pkgs[pkg] = append(src.pkgs[pkg], f)
		return nil
	}
	for _, d := range dirs {
		if err := filepath.WalkDir(filepath.Join(root, d), walk); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// pos is n's file:line, the file relative to the source root.
func (src *source) pos(n ast.Node) string {
	p := src.fset.Position(n.Pos())
	rel, _ := filepath.Rel(src.root, p.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

// list returns, for every func and method of src, its symbol without type
// arguments (module/dir.F, module/dir.T.M or module/dir.(*T).M) mapped to
// its file:line. It leaves out init functions.
func list(src *source) map[string]string {
	out := map[string]string{}
	for pkg, files := range src.pkgs {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && (fd.Recv != nil || fd.Name.Name != "init") {
					out[symbol(pkg, fd)] = src.pos(fd)
				}
			}
		}
	}
	return out
}

// symbol is the linker's name of fd in package pkg, without type arguments.
func symbol(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	recv := cut(types.ExprString(fd.Recv.List[0].Type))
	if t, ok := strings.CutPrefix(recv, "*"); ok {
		recv = "(*" + t + ")"
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// link adds to set the text symbols of one `go tool nm` listing, each cut
// of its type arguments, with the binary's main.X read as mainPkg.X.
func link(listing, mainPkg string, set map[string]bool) {
	for _, line := range strings.Split(listing, "\n") {
		// Address, kind, name; a shape type in the name may hold spaces.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			name := cut(f[2])
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = mainPkg + "." + rest
			}
			set[name] = true
		}
	}
}

// cut removes every bracketed group from a symbol, nested brackets
// included: p.(*T[go.shape.[]int]).M is p.(*T).M.
func cut(sym string) string {
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// check returns the lines to report: each func or method of funcs that no
// binary links and each field of fields that no non-test code reads, where
// used holds the linked and the read, unless the allow-list names it; and
// each allow-list line whose name is used, declared nowhere or given no
// reason. funcs and fields map a name to its file:line. An allow-list line
// is a name as check prints it, without the module prefix, then its reason;
// # starts a comment.
func check(funcs, fields map[string]string, used map[string]bool, allow, module string) []string {
	var out []string
	verb := func(sym string) string {
		if fields[sym] != "" {
			return "read"
		}
		return "linked"
	}
	allowed := map[string]bool{}
	for _, line := range strings.Split(allow, "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		sym := module + "/" + name
		switch {
		case name == "" || name[0] == '#':
		case strings.TrimSpace(reason) == "":
			out = append(out, "allow-list: "+name+" gives no reason")
		case funcs[sym] == "" && fields[sym] == "":
			out = append(out, "allow-list: "+name+" is declared nowhere")
		case used[sym]:
			out = append(out, "allow-list: "+name+" is "+verb(sym)+"; remove its line")
		default:
			allowed[sym] = true
		}
	}
	for sym, pos := range funcs {
		if !used[sym] && !allowed[sym] {
			out = append(out, pos+": "+strings.TrimPrefix(sym, module+"/")+" is linked by no binary")
		}
	}
	for sym, pos := range fields {
		if !used[sym] && !allowed[sym] {
			out = append(out, pos+": "+strings.TrimPrefix(sym, module+"/")+" is read by no non-test code")
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	used := map[string]bool{}
	for _, spec := range os.Args[2:] {
		pkg, file, _ := strings.Cut(spec, "=")
		data, err := os.ReadFile(file)
		exitOn(err)
		link(string(data), pkg, used)
	}
	src, err := parse(".", "ripple", "internal/golden", "internal", "cmd")
	exitOn(err)
	imp, err := exports(src.fset, "./internal/...")
	exitOn(err)
	fieldDecls, read, err := fields(src, "ripple/internal/", imp)
	exitOn(err)
	for name := range read {
		used[name] = true
	}
	allow, err := os.ReadFile(os.Args[1])
	exitOn(err)
	funcs := list(src)
	bad := check(funcs, fieldDecls, used, string(allow), "ripple")
	for _, l := range bad {
		fmt.Println(l)
	}
	if len(bad) > 0 {
		exitOn(fmt.Errorf("%d of %d functions and %d fields are unused or wrongly allowed; delete each one, move a function into its package's export_test.go, or give it a line and a reason in %s", len(bad), len(funcs), len(fieldDecls), os.Args[1]))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}
