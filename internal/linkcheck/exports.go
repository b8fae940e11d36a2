package linkcheck

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// listedPackage is the part of `go list -json` output deadExports reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct {
		Path string
		Main bool
	}
}

// deadExports type-checks the non-test files of every package of the module
// rooted at dir and returns one problem per exported package-level func,
// type, const or var, or exported method, declared under the module's
// internal/ tree that no non-test file references (its own declaration
// aside). A method also counts as used when its receiver type implements an
// interface, declared in any loaded package or error, that names it. Keys of
// allow are "internal/pkg.Name" or "internal/pkg.Type.Method", relative to
// the module path; an allowed symbol is not reported, and an allow entry
// that names nothing dead is.
func deadExports(dir string, allow map[string]string) ([]Problem, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	// Fix the platform so every host checks the same file set.
	cmd.Env = append(os.Environ(), "GOOS=linux")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	var module []*listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Main {
			module = append(module, p)
		}
	}
	if len(module) == 0 {
		return nil, fmt.Errorf("go list found no packages in %s", dir)
	}
	modPath := module[len(module)-1].Module.Path

	// go list -deps orders dependencies first, so every module import is
	// checked before its importers; the rest come from export data.
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	// A use inside the symbol's own declaration, or naming a method's
	// receiver type, is no caller.
	declSpan := map[types.Object][2]token.Pos{}
	skip := map[*ast.Ident]bool{}
	for _, p := range module {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declSpan[info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declSpan[info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declSpan[info.Defs[n]] = [2]token.Pos{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if span, ok := declSpan[obj]; skip[id] || ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		used[obj] = true
	}

	// A method no file calls is still used when its receiver implements an
	// interface that names it: error, or one declared in a loaded package
	// or written out in the module's code.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			collect(q)
		}
	}
	for _, pkg := range checked {
		collect(pkg)
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	satisfies := func(m *types.Func) bool {
		recv := m.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	// Dead symbols are reported in file and line order, then the allow-list
	// entries that name no dead symbol.
	type dead struct {
		pos token.Position
		key string
	}
	var found []dead
	stale := maps.Clone(allow)
	for _, p := range module {
		rel := strings.TrimPrefix(p.ImportPath, modPath+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		report := func(obj types.Object, key string) {
			if _, ok := allow[key]; ok {
				delete(stale, key)
				return
			}
			found = append(found, dead{fset.Position(obj.Pos()), key})
		}
		scope := checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, rel+"."+name)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !used[m] && !satisfies(m) {
					report(m, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.SortFunc(found, func(a, b dead) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line))
	})
	var problems []Problem
	for _, d := range found {
		file, _ := filepath.Rel(dir, d.pos.Filename)
		problems = append(problems, Problem{fmt.Sprintf("%s:%d", file, d.pos.Line), d.key, "exported, and no non-test Go file uses it"})
	}
	for _, key := range slices.Sorted(maps.Keys(stale)) {
		problems = append(problems, Problem{"allow-list", key, "allowed, but not an unused export"})
	}
	return problems, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
