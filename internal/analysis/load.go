package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// LoadDir parses and type-checks every non-test package under root,
// which must contain a go.mod naming the module. Directories named
// testdata or vendor, hidden directories, and _test.go files are
// skipped. Module-internal imports resolve to the freshly parsed
// source; everything else (the standard library) resolves through the
// stdlib source importer, so no compiled export data is required.
// Every package is parsed first; then each is type-checked after the
// module packages it imports, depth first, and an import cycle is an
// error naming the packages on it.
func LoadDir(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, modPath)
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var parsed []*parsedPkg
	for _, dir := range dirs {
		pp, err := ld.parseDir(ld.importPath(dir), dir)
		if err != nil {
			return nil, err
		}
		if pp != nil {
			parsed = append(parsed, pp)
			ld.parsed[pp.path] = pp
		}
	}
	var pkgs []*Package
	for _, pp := range parsed {
		p, err := ld.load(pp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// packageDirs returns every directory under root holding at least one
// non-test .go file, in walk order.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceFile(e.Name()) {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// buildConstraintsSatisfied evaluates the //go:build line of a parsed
// file (if any) against the default build configuration: GOOS, GOARCH,
// and go1.x release tags are true, custom tags (prospector_debug and
// friends) are false. Files excluded by their constraints — debug-only
// assertion shims, platform twins — would otherwise double-declare
// symbols and fail the type-check.
func buildConstraintsSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed: let the compiler complain, not lint
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// parsedPkg is one parsed-but-not-yet-type-checked package.
type parsedPkg struct {
	path  string
	dir   string
	files []*ast.File
}

// moduleImports lists the module-internal import paths of the package.
func (p *parsedPkg) moduleImports(modPath string) []string {
	var deps []string
	for _, f := range p.files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == modPath || strings.HasPrefix(path, modPath+"/") {
				deps = append(deps, path)
			}
		}
	}
	return deps
}

// loader holds one load's parsed packages, the type-checked ones by
// import path, and the chain of packages being loaded; it doubles as
// the types.Importer.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	sizes   types.Sizes
	std     types.Importer

	parsed  map[string]*parsedPkg
	pkgs    map[string]*Package
	loading []string
}

func newLoader(root, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:    root,
		modPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		sizes:   types.SizesFor("gc", runtime.GOARCH),
		parsed:  make(map[string]*parsedPkg),
		pkgs:    make(map[string]*Package),
	}
}

// importPath maps a directory under the module root to its import path.
func (ld *loader) importPath(dir string) string {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil || rel == "." {
		return ld.modPath
	}
	return ld.modPath + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer: module-internal paths were
// type-checked before their importer (see load), everything else
// defers to the stdlib source importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		if p, ok := ld.pkgs[path]; ok {
			return p.Types, nil
		}
		return nil, fmt.Errorf("analysis: no Go files in %s", path)
	}
	return ld.std.Import(path)
}

// parseDir parses the non-test files of one directory. It returns
// (nil, nil) for a directory with no non-test files.
func (ld *loader) parseDir(path, dir string) (*parsedPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildConstraintsSatisfied(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &parsedPkg{path: path, dir: dir, files: files}, nil
}

// load type-checks pp after the module packages it imports and
// memoizes the result. A module import with no parsed package is left
// to the type-checker, which reports it.
func (ld *loader) load(pp *parsedPkg) (*Package, error) {
	if p, ok := ld.pkgs[pp.path]; ok {
		return p, nil
	}
	for i, path := range ld.loading {
		if path == pp.path {
			return nil, fmt.Errorf("analysis: import cycle: %s -> %s",
				strings.Join(ld.loading[i:], " -> "), path)
		}
	}
	ld.loading = append(ld.loading, pp.path)
	for _, dep := range pp.moduleImports(ld.modPath) {
		if dp := ld.parsed[dep]; dp != nil {
			if _, err := ld.load(dp); err != nil {
				return nil, err
			}
		}
	}
	ld.loading = ld.loading[:len(ld.loading)-1]

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld, Sizes: ld.sizes}
	tpkg, err := conf.Check(pp.path, ld.fset, pp.files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pp.path, err)
	}
	p := &Package{
		Path:  pp.path,
		Dir:   pp.dir,
		Fset:  ld.fset,
		Files: pp.files,
		Types: tpkg,
		Info:  info,
	}
	collectSuppressions(p)
	ld.pkgs[pp.path] = p
	return p, nil
}
