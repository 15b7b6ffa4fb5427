package servo

// The test-only-surface gate. Product code (every non-test file of this
// module; benchmark/ is a module of its own) must not export what only tests
// reach, and must not keep unexported declarations that nothing reaches.
// The walk below decides both from go/types, so neither is found by reading:
//
//   - an exported identifier declared in a non-test file fails when no other
//     non-test file of the module, and no non-test file of benchmark/, uses
//     it (cmd/ and examples/ are ordinary users);
//   - an unexported package-level func, method, type, var or const fails when
//     nothing uses it, test files included;
//   - a method counts as used when its receiver type implements a module or
//     standard-library interface that has the method (fmt.Stringer's String,
//     io.Writer's Write, ...), since such calls go through the interface;
//   - a struct field fails as "never-set" when non-test code reads it and
//     nothing writes it, and as "write-only" when nothing reads it. For an
//     exported field "nothing" means no non-test file; for an unexported
//     field it means no file at all, so a test-only switch that a test sets
//     and the product reads passes.
//
// A field is written by an assignment, op-assign or inc/dec whose target
// selects it (also through x.f[i], x.f.g and *x.f chains), by a keyed
// composite literal naming it, by an unkeyed composite literal or a
// conversion to its struct type, and by a call of a pointer-receiver method
// that returns nothing on it when it is not a pointer (Counter.Inc,
// Sample.Add); &x.f both writes and reads it. The right-hand side of an
// op-assign that selects the same field as its target (w.f += o.f) counts
// with that write and not as a read: a value that only flows back into its
// own field is read by nothing. Every other use reads it, and a struct value
// passed to an interface-typed parameter (fmt's %+v) reads all its fields.
// Fields with struct tags (reflection sets them) and fields of sync and
// sync/atomic types are not judged for reads and writes.
//
// What fails must be deleted, moved into a _test.go file, or given a row in
// allowTestOnly with a reason the walk cannot see.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// allowTestOnly keeps a finding of the walk, keyed as the walk prints it
// (package path relative to the module, then the owner type if any, then the
// name). Each row states a reason the walk cannot see: a reference
// implementation tests compare a product path against, a constant the paper
// names, or a use through reflection. A row whose identifier the walk no
// longer reports is itself an error, so the table cannot go stale.
var allowTestOnly = map[string]string{
	"internal/world.Chunk.Equal":  "reference: compares block contents however each chunk stores its layers; tests check decoded, generated, pooled and sealed chunks against it",
	"internal/world.DecodeChunk":  "reference: the allocating decoder that tests decode stored and wire bytes with, to check what DecodeChunkInto and LoadEncoded do in place",
	"internal/sc.DecodeLayout":    "reference: the allocating layout decoder that the handler and oracle tests rebuild constructs with, beside the in-place DecodeLayoutInto the handler runs",
	"internal/sc.Construct.State": "reference: the serial simulator's state vector is the oracle specexec's replies and loop replays are checked against",
	"servo.BehaviorBounded":       "paper constant: Table I behaviour A",
	"servo.BehaviorStar3":         "paper constant: Table I behaviour S3",
	"servo.BehaviorStar8":         "paper constant: Table I behaviour S8",
}

func TestNoTestOnlyExports(t *testing.T) {
	findings, err := walkSurface(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	reportSurface(t, findings, allowTestOnly)
}

// TestSurfaceWalkFixture proves that the walk bites: the fixture module under
// testdata/testonly holds a test-only export, an unreferenced export, an
// exported option that only its own package reads, an exported counter that
// is only incremented, an unexported field that is written and never read,
// an unexported field only summed into itself, a method reached only through
// io.Writer, an identifier only its stand-in benchmark module reads, an
// unexported helper only its test calls, a struct printed with %+v, a
// json-tagged field, a sync.Mutex field and an unexported switch that only a
// test sets. Exactly the first six are findings.
// testdata/orphan holds an unexported function that only calls itself and a
// type that only its own method names.
func TestSurfaceWalkFixture(t *testing.T) {
	for _, tc := range []struct {
		dir, users string
		want       []string
	}{
		{"testdata/testonly", "benchmark", []string{
			"lib.Options.Verbose never-set",
			"lib.Runner.Calls write-only",
			"lib.Runner.last write-only",
			"lib.Runner.total write-only",
			"lib.TestOnly test-only",
			"lib.Unreferenced unreferenced",
		}},
		{"testdata/orphan", "", []string{"orphan.forgotten orphan", "orphan.stale orphan", "orphan.stale.tick orphan"}},
	} {
		var users []string
		if tc.users != "" {
			users = append(users, tc.users)
		}
		findings, err := walkSurface(tc.dir, users...)
		if err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		var got []string
		for _, f := range findings {
			got = append(got, f.key+" "+f.kind)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: walk listed %q, want %q", tc.dir, got, tc.want)
		}
	}
}

// reportSurface fails t on every finding without an allow row, logs the
// allowed ones and fails on allow rows that match no finding.
func reportSurface(t *testing.T, findings []surfaceFinding, allow map[string]string) {
	t.Helper()
	matched := map[string]bool{}
	for _, f := range findings {
		if reason, ok := allow[f.key]; ok {
			matched[f.key] = true
			t.Logf("allowed  %s (%s): %s", f.key, f.kind, reason)
			continue
		}
		t.Errorf("%s: %s is %s", f.at, f.key, f.kind)
	}
	for key := range allow {
		if !matched[key] {
			t.Errorf("allow row %s matches no finding: delete the row", key)
		}
	}
	t.Logf("%d finding(s), %d allowed", len(findings), len(matched))
}

// surfaceFinding is one identifier the walk fails on. kind is "test-only"
// (exported; only _test.go files use it), "unreferenced" (exported; nothing
// uses it), "orphan" (unexported; nothing uses it), "never-set" (a field
// product code reads and nothing writes) or "write-only" (a field nothing
// reads).
type surfaceFinding struct {
	at, key, kind string
}

// listedPackage is the part of `go list -json` output the walk reads.
type listedPackage struct {
	ImportPath, Dir, ForTest string
	Standard                 bool
	Module                   *struct {
		Path string
		Main bool
	}
	GoFiles, TestGoFiles, XTestGoFiles []string
	ImportMap                          map[string]string
}

// surfaceDecl is a declaration the walk judges, keyed by its position.
// Each count is indexed by file kind: [0] non-test files, [1] _test.go files.
type surfaceDecl struct {
	obj      types.Object
	key      string
	from, to token.Pos // its own declaration: uses inside do not count
	field    bool      // a struct field judged for reads and writes
	uses     [2]int
	reads    [2]int // field reads
	writes   [2]int // field writes
}

// access is how an expression uses a struct field.
type access uint8

const (
	read access = 1 << iota
	write
)

type surfaceWalk struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	files   map[string][]*ast.File // parsed non-test files of module packages
	module  string                 // module path of the judged module
	judged  map[string]bool        // packages whose declarations are judged
	decls   map[token.Pos]*surfaceDecl
	ifaces  []*types.Interface
}

// walkSurface type-checks the module rooted at root and the non-test files
// of each user module (a directory under root with its own go.mod that
// replaces root's module), and returns root's findings sorted by key.
func walkSurface(root string, users ...string) ([]surfaceFinding, error) {
	w := &surfaceWalk{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{"unsafe": types.Unsafe},
		files:   map[string][]*ast.File{},
		judged:  map[string]bool{},
		decls:   map[token.Pos]*surfaceDecl{},
		ifaces:  []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)},
	}
	mine, err := w.list(root, true)
	if err != nil {
		return nil, err
	}
	for _, lp := range mine {
		w.judged[lp.ImportPath] = true
		w.module = lp.Module.Path
	}
	var theirs []*listedPackage
	for _, dir := range users {
		lps, err := w.list(filepath.Join(root, dir), false)
		if err != nil {
			return nil, err
		}
		theirs = append(theirs, lps...)
	}
	// Non-test files first, so that every declaration is known before the
	// test files' uses are counted.
	for _, lp := range append(mine, theirs...) {
		if _, err := w.load(lp.ImportPath); err != nil {
			return nil, err
		}
	}
	for _, lp := range mine {
		if err := w.checkTests(lp); err != nil {
			return nil, err
		}
	}
	return w.findings(), nil
}

// list runs `go list -deps -json` in dir and returns the main module's
// packages; every listed package, standard library included, is recorded
// for loading from source.
func (w *surfaceWalk) list(dir string, tests bool) ([]*listedPackage, error) {
	args := []string{"list", "-deps", "-json"}
	if tests {
		args = append(args, "-test")
	}
	// go test puts its own toolchain first on PATH.
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOWORK=off")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var mains []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		// -test adds each package's test variants and test mains; the walk
		// checks test files itself.
		if lp.ForTest != "" || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		if _, ok := w.listed[lp.ImportPath]; !ok {
			w.listed[lp.ImportPath] = lp
		}
		if lp.Module != nil && lp.Module.Main {
			mains = append(mains, lp)
		}
	}
	return mains, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importer resolves lp's imports to checked non-test packages, through its
// vendor ImportMap; self, if non-nil, stands in for lp's own path.
func (w *surfaceWalk) importer(lp *listedPackage, self *types.Package) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		if self != nil && path == lp.ImportPath {
			return self, nil
		}
		return w.load(path)
	})
}

// load type-checks the non-test files of path (and, first, its imports).
// Standard-library bodies are skipped: only their declarations matter.
func (w *surfaceWalk) load(path string) (*types.Package, error) {
	if pkg, ok := w.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := w.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %s was not listed", path)
	}
	files, err := w.parse(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	var info *types.Info
	if !lp.Standard {
		info = newInfo()
		w.files[path] = files
	}
	conf := types.Config{Importer: w.importer(lp, nil), IgnoreFuncBodies: lp.Standard}
	pkg, err := conf.Check(path, w.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	w.checked[path] = pkg
	w.collectInterfaces(pkg)
	if info != nil {
		if w.judged[path] {
			w.declare(pkg, files, info)
		}
		w.count(info, files)
	}
	return pkg, nil
}

// checkTests type-checks lp's in-package test files together with its
// non-test files, then its external test files against that variant, and
// counts their uses. Errors are ignored: `go vet` and `go test` own them, and
// an external test importing lp both directly and through another package
// sees two variants of it.
func (w *surfaceWalk) checkTests(lp *listedPackage) error {
	if len(lp.TestGoFiles)+len(lp.XTestGoFiles) == 0 {
		return nil
	}
	tests, err := w.parse(lp.Dir, lp.TestGoFiles)
	if err != nil {
		return err
	}
	info := newInfo()
	conf := types.Config{Importer: w.importer(lp, nil), Error: func(error) {}}
	variant, _ := conf.Check(lp.ImportPath, w.fset, append(slices.Clone(w.files[lp.ImportPath]), tests...), info)
	w.count(info, tests)
	xtests, err := w.parse(lp.Dir, lp.XTestGoFiles)
	if err != nil {
		return err
	}
	info = newInfo()
	conf.Importer = w.importer(lp, variant)
	conf.Check(lp.ImportPath+"_test", w.fset, xtests, info)
	w.count(info, xtests)
	return nil
}

func (w *surfaceWalk) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// collectInterfaces records every interface with methods that pkg declares
// at package level.
func (w *surfaceWalk) collectInterfaces(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue // an uninstantiated generic interface implements nothing
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			w.ifaces = append(w.ifaces, it)
		}
	}
}

// declare records the declarations of a judged package that the walk
// judges: exported package-level identifiers, methods and struct fields,
// unexported package-level funcs, methods, types, vars and consts, and
// unexported struct fields (for reads and writes only). Fields of
// a struct spelled inside an interface (a type constraint such as
// ~struct{ X, Z int }) and embedded fields are not judged; neither are init,
// main and _.
func (w *surfaceWalk) declare(pkg *types.Package, files []*ast.File, info *types.Info) {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), w.module), "/")
	if rel == "" {
		rel = pkg.Name()
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				if obj == nil || d.Name.Name == "init" || (d.Name.Name == "main" && pkg.Name() == "main") {
					continue
				}
				key := rel + "." + d.Name.Name
				if d.Recv != nil {
					key = rel + "." + receiverName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				w.judge(obj, key, d.Pos(), d.End())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						w.judge(info.Defs[spec.Name], rel+"."+spec.Name.Name, spec.Pos(), spec.End())
						w.declareMembers(info, rel+"."+spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							w.judge(info.Defs[name], rel+"."+name.Name, name.Pos(), name.End())
							w.declareMembers(info, rel+"."+name.Name, spec.Type)
						}
					}
				}
			}
		}
	}
}

// declareMembers judges the fields of the struct types and the methods of
// the interface types spelled in expr, outside function literals and type
// constraints. A field with a tag or of a sync or sync/atomic type is not
// judged for reads and writes; an unexported one is then not judged at all.
func (w *surfaceWalk) declareMembers(info *types.Info, owner string, expr ast.Expr) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.FuncType:
			return false // parameters are not fields
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				if _, ok := m.Type.(*ast.FuncType); ok {
					w.judge(info.Defs[m.Names[0]], owner+"."+m.Names[0].Name, m.Pos(), m.Pos())
				}
			}
			return false
		case *ast.Field:
			for _, name := range n.Names {
				obj := info.Defs[name]
				field := n.Tag == nil && obj != nil && !isSyncType(obj.Type())
				if name.IsExported() || field {
					if d := w.judge(obj, owner+"."+name.Name, name.Pos(), name.Pos()); d != nil {
						d.field = field
					}
				}
			}
		}
		return true
	})
}

// isSyncType reports whether t is declared in sync or sync/atomic.
func isSyncType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

func (w *surfaceWalk) judge(obj types.Object, key string, from, to token.Pos) *surfaceDecl {
	if obj == nil || obj.Name() == "_" {
		return nil
	}
	d := &surfaceDecl{obj: obj, key: key, from: from, to: to}
	w.decls[obj.Pos()] = d
	return d
}

// receiverName is the base type name of a method receiver expression.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// count adds the uses that info records in files to the judged
// declarations. A use inside the declaration itself (a recursive call, a
// type naming itself) or naming a method's receiver type does not count,
// so a type that only its own methods name is unused.
func (w *surfaceWalk) count(info *types.Info, files []*ast.File) {
	inFiles := map[*token.File]bool{}
	receivers := map[*ast.Ident]bool{}
	accesses := map[*ast.Ident]access{}
	for _, f := range files {
		inFiles[w.fset.File(f.Pos())] = true
		w.accesses(info, f, accesses)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if !receivers[id] && inFiles[w.fset.File(id.Pos())] {
			acc := accesses[id]
			if acc == 0 {
				acc = read
			}
			w.use(obj, id.Pos(), acc)
		}
	}
}

// accesses records in acc the field selections of f that write (or write
// and read) a field, and counts the uses that name no field: unkeyed
// composite literals and conversions write every field of their struct
// type, and a struct value passed to an interface-typed parameter reads
// every field of its type.
func (w *surfaceWalk) accesses(info *types.Info, f *ast.File, acc map[*ast.Ident]access) {
	// mark records a as the access of every field that the target expression
	// e selects, down its chain of selectors, indexes and dereferences.
	mark := func(e ast.Expr, a access) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); !ok || !v.IsField() {
					return
				}
				acc[x.Sel] |= a
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					mark(lhs, write)
				}
			}
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				target, ok1 := ast.Unparen(n.Lhs[0]).(*ast.SelectorExpr)
				src, ok2 := ast.Unparen(n.Rhs[0]).(*ast.SelectorExpr)
				if ok1 && ok2 && acc[target.Sel] != 0 && info.Uses[src.Sel] == info.Uses[target.Sel] {
					acc[src.Sel] |= write
				}
			}
		case *ast.IncDecStmt:
			mark(n.X, write)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				mark(n.Key, write)
				mark(n.Value, write)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X, read|write)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st := structOf(t)
			if st == nil || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				for _, elt := range n.Elts {
					if key, ok := elt.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
						acc[key] |= write
					}
				}
				break
			}
			for i := range n.Elts {
				w.use(st.Field(i), n.Pos(), write)
			}
		case *ast.CallExpr:
			w.callAccesses(info, n, mark)
		}
		return true
	})
}

// callAccesses counts the field accesses of call that are not target
// expressions: a conversion to a struct type writes all its fields, a
// pointer-receiver method returning nothing writes the non-pointer field
// it is called on, and a struct value passed to an interface-typed
// parameter reads all the fields of its type.
func (w *surfaceWalk) callAccesses(info *types.Info, call *ast.CallExpr, mark func(ast.Expr, access)) {
	fun := info.Types[call.Fun]
	if fun.IsType() {
		if st, ok := fun.Type.Underlying().(*types.Struct); ok {
			w.useFields(st, call.Pos(), write, nil)
		}
		return
	}
	sig, ok := fun.Type.(*types.Signature)
	if !ok || fun.IsBuiltin() {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && sig.Results().Len() == 0 {
			_, ptrRecv := s.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer)
			if ptrRecv && !s.Indirect() {
				mark(sel.X, write)
			}
		}
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, tp := pt.(*types.TypeParam); tp || !types.IsInterface(pt) {
			continue
		}
		if st := structOf(info.Types[arg].Type); st != nil {
			w.useFields(st, arg.Pos(), read, map[*types.Struct]bool{})
		}
	}
}

// useFields counts an access a at at to every field of st; with seen
// non-nil it descends into fields of struct type, as fmt does.
func (w *surfaceWalk) useFields(st *types.Struct, at token.Pos, a access, seen map[*types.Struct]bool) {
	if seen != nil {
		if seen[st] {
			return
		}
		seen[st] = true
	}
	for i := range st.NumFields() {
		f := st.Field(i)
		w.use(f, at, a)
		if inner, ok := f.Type().Underlying().(*types.Struct); ok && seen != nil {
			w.useFields(inner, at, a, seen)
		}
	}
}

// structOf is t's underlying struct type, or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func (w *surfaceWalk) use(obj types.Object, at token.Pos, a access) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := w.decls[obj.Pos()]
	if d == nil || (at >= d.from && at <= d.to) {
		return
	}
	k := 0
	if strings.HasSuffix(w.fset.File(at).Name(), "_test.go") {
		k = 1
	}
	d.uses[k]++
	if a&read != 0 {
		d.reads[k]++
	}
	if a&write != 0 {
		d.writes[k]++
	}
}

// findings returns the judged declarations that fail, sorted by key.
func (w *surfaceWalk) findings() []surfaceFinding {
	var out []surfaceFinding
	for _, d := range w.decls {
		kind := w.judgement(d)
		if kind == "" {
			continue
		}
		p := w.fset.Position(d.obj.Pos())
		out = append(out, surfaceFinding{at: fmt.Sprintf("%s:%d", p.Filename, p.Line), key: d.key, kind: kind})
	}
	slices.SortFunc(out, func(a, b surfaceFinding) int { return strings.Compare(a.key, b.key) })
	return out
}

// judgement is the kind of finding d is, or "" if it passes.
func (w *surfaceWalk) judgement(d *surfaceDecl) string {
	exported := d.obj.Exported()
	if d.uses[0] == 0 && !w.viaInterface(d.obj) {
		switch {
		case d.uses[1] == 0 && exported:
			return "unreferenced"
		case d.uses[1] == 0:
			return "orphan"
		case exported:
			return "test-only"
		}
	}
	if !d.field {
		return ""
	}
	reads, writes := d.reads[0], d.writes[0]
	if !exported {
		reads += d.reads[1]
		writes += d.writes[1]
	}
	switch {
	case reads == 0:
		return "write-only"
	case d.reads[0] > 0 && writes == 0:
		return "never-set"
	}
	return ""
}

// viaInterface reports whether obj is a method whose receiver type
// implements a known interface that has a method of that name.
func (w *surfaceWalk) viaInterface(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
		return false
	}
	for _, it := range w.ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == f.Name() && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
				return true
			}
		}
	}
	return false
}
