// Command reach lists the funcs and methods of non-test Go under internal/
// and cmd/ that no given binary links, and fails on each one that the
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

// list returns, for every func and method in the non-test Go files under
// each root/dir that the default build compiles, its symbol without type
// arguments (module/dir.F, module/dir.T.M or module/dir.(*T).M) mapped to
// its file:line. It leaves out init functions, testdata and the directory
// skip.
func list(root, module, skip string, dirs ...string) (map[string]string, error) {
	out := map[string]string{}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + path.Dir(rel)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && (fd.Recv != nil || fd.Name.Name != "init") {
				out[symbol(pkg, fd)] = fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
			}
		}
		return nil
	}
	for _, d := range dirs {
		if err := filepath.WalkDir(filepath.Join(root, d), walk); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// check returns the lines to report: each declaration that no binary links
// and the allow-list does not name, and each allow-list line whose name is
// linked, declared nowhere or given no reason. An allow-list line is a name
// as check prints it, without the module prefix, then its reason; # starts
// a comment.
func check(decls map[string]string, linked map[string]bool, allow, module string) []string {
	var out []string
	allowed := map[string]bool{}
	for _, line := range strings.Split(allow, "\n") {
		name, reason, _ := strings.Cut(strings.TrimSpace(line), " ")
		sym := module + "/" + name
		switch {
		case name == "" || name[0] == '#':
		case strings.TrimSpace(reason) == "":
			out = append(out, "allow-list: "+name+" gives no reason")
		case decls[sym] == "":
			out = append(out, "allow-list: "+name+" is declared nowhere")
		case linked[sym]:
			out = append(out, "allow-list: "+name+" is linked; remove its line")
		default:
			allowed[sym] = true
		}
	}
	for sym, pos := range decls {
		if !linked[sym] && !allowed[sym] {
			out = append(out, pos+": "+strings.TrimPrefix(sym, module+"/")+" is linked by no binary")
		}
	}
	sort.Strings(out)
	return out
}

func main() {
	linked := map[string]bool{}
	for _, spec := range os.Args[2:] {
		pkg, file, _ := strings.Cut(spec, "=")
		data, err := os.ReadFile(file)
		exitOn(err)
		link(string(data), pkg, linked)
	}
	decls, err := list(".", "ripple", "internal/golden", "internal", "cmd")
	exitOn(err)
	allow, err := os.ReadFile(os.Args[1])
	exitOn(err)
	bad := check(decls, linked, string(allow), "ripple")
	for _, l := range bad {
		fmt.Println(l)
	}
	if len(bad) > 0 {
		exitOn(fmt.Errorf("%d functions of %d are unreached or wrongly allowed; delete each one, move it into its package's export_test.go, or give it a line and a reason in %s", len(bad), len(decls), os.Args[1]))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}
